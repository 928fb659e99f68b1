package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkerRowRe matches one row of a checker table: the name in
// backticks, then the rest of the row. In README.md the rest is the
// checker's doc line; in DESIGN.md it is two columns of prose.
var checkerRowRe = regexp.MustCompile("^\\| `([a-z-]+)` \\| (.+) \\|$")

// TestReadmeCheckerTableMatchesRegistry pins both checker tables to the
// registry. README.md: same checkers, same order, same doc lines.
// DESIGN.md §6: same checkers, same order (its other columns are
// prose). Adding, renaming, or redocumenting a checker without updating
// the docs (or vice versa) fails here, so they cannot drift from the
// code — or from each other.
func TestReadmeCheckerTableMatchesRegistry(t *testing.T) {
	for _, tc := range []struct {
		file     string
		checkDoc bool
	}{
		{"README.md", true},
		{"DESIGN.md", false},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Fatalf("reading %s: %v", tc.file, err)
		}
		text := string(data)

		const begin = "<!-- prionnvet-checkers:begin -->"
		const end = "<!-- prionnvet-checkers:end -->"
		i := strings.Index(text, begin)
		j := strings.Index(text, end)
		if i < 0 || j < 0 || j < i {
			t.Fatalf("%s is missing the %s / %s markers", tc.file, begin, end)
		}

		type row struct{ name, rest string }
		var rows []row
		for _, line := range strings.Split(text[i+len(begin):j], "\n") {
			line = strings.TrimSpace(line)
			if m := checkerRowRe.FindStringSubmatch(line); m != nil {
				rows = append(rows, row{name: m[1], rest: m[2]})
			}
		}

		all := All()
		if len(rows) != len(all) {
			var names []string
			for _, r := range rows {
				names = append(names, r.name)
			}
			t.Fatalf("%s table has %d checker rows (%v), registry has %d",
				tc.file, len(rows), names, len(all))
		}
		for k, c := range all {
			if rows[k].name != c.Name() {
				t.Errorf("%s row %d: table says %q, registry says %q (order matters)",
					tc.file, k, rows[k].name, c.Name())
				continue
			}
			if tc.checkDoc && rows[k].rest != c.Doc() {
				t.Errorf("%s: %s doc %q != Doc() %q", c.Name(), tc.file, rows[k].rest, c.Doc())
			}
		}
	}
}
