package fixture

import "os"

var hits int

func bump() {
	hits++ //prionnvet:ignore mutable-pkg-var -- fixture: single-goroutine tool state
}

func closeQuietly(f *os.File) {
	//prionnvet:ignore unchecked-err -- fixture: standalone directive covers the next line
	f.Close()
}

func values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) //prionnvet:ignore all -- fixture: blanket suppression
	}
	return out
}

func multi(f func() error) {
	//prionnvet:ignore unchecked-err,naked-goroutine -- fixture: comma-separated list
	go f()
}
