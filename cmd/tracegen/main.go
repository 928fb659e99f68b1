// Command tracegen generates and inspects synthetic HPC workload traces
// (the substitute for the closed LLNL Cab dataset — see DESIGN.md §1).
//
// Usage:
//
//	tracegen -jobs 10000 -preset cab -format stats
//	tracegen -jobs 5000 -preset sdsc95 -format json -o trace.json
//	tracegen -jobs 100 -format scripts | less
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"prionn/internal/metrics"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	jobs := flag.Int("jobs", 10000, "number of jobs to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	preset := flag.String("preset", "cab", "trace preset: cab, sdsc95, sdsc96")
	format := flag.String("format", "stats", "output format: stats, json, csv, scripts")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var cfg trace.Config
	switch *preset {
	case "cab":
		cfg = trace.DefaultConfig(*jobs)
		cfg.Seed = *seed
	case "sdsc95":
		cfg = trace.SDSC95Config(*jobs)
	case "sdsc96":
		cfg = trace.SDSC96Config(*jobs)
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	cfg.Jobs = *jobs

	all := trace.Generate(cfg)

	var w io.Writer = os.Stdout
	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		closeOut = f.Close
		w = f
	}

	switch *format {
	case "stats":
		if err := printStats(w, all); err != nil {
			log.Fatal(err)
		}
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			log.Fatal(err)
		}
	case "csv":
		if err := writeCSV(w, all); err != nil {
			log.Fatal(err)
		}
	case "scripts":
		for _, j := range all {
			if _, err := fmt.Fprintf(w, "### job %d (user %s, %d min actual, %d min requested)\n%s\n",
				j.ID, j.User, j.ActualMin(), j.RequestedMin, j.Script); err != nil {
				log.Fatal(err)
			}
		}
	default:
		log.Fatalf("unknown format %q", *format)
	}
	// A trace file truncated by a failed close would silently skew every
	// downstream experiment; report it.
	if err := closeOut(); err != nil {
		log.Fatal(err)
	}
}

// printStats renders the summary into memory and writes it once, so a
// single error check covers the whole report.
func printStats(w io.Writer, all []trace.Job) error {
	completed := trace.Completed(all)
	var mins, reqErr, rbw, wbw []float64
	for _, j := range completed {
		mins = append(mins, float64(j.ActualMin()))
		reqErr = append(reqErr, float64(j.RequestedMin-j.ActualMin()))
		rbw = append(rbw, j.ReadBW())
		wbw = append(wbw, j.WriteBW())
	}
	ms := metrics.Summarize(mins)
	rs := metrics.Summarize(rbw)
	ws := metrics.Summarize(wbw)

	var b strings.Builder
	fmt.Fprintf(&b, "jobs:            %d (%d completed, %d canceled)\n",
		len(all), len(completed), len(all)-len(completed))
	fmt.Fprintf(&b, "unique scripts:  %d (%.1f%%)\n",
		trace.UniqueScripts(all), 100*float64(trace.UniqueScripts(all))/float64(len(all)))
	fmt.Fprintf(&b, "runtime (min):   mean %.1f  median %.1f  p95 %.1f  max %.0f\n",
		ms.Mean, ms.Median, ms.P95, ms.Max)
	sort.Float64s(reqErr)
	var errSum float64
	for _, e := range reqErr {
		if e < 0 {
			e = -e
		}
		errSum += e
	}
	fmt.Fprintf(&b, "user estimate:   mean abs error %.0f min (paper: 172)\n", errSum/float64(len(reqErr)))
	fmt.Fprintf(&b, "read BW (B/s):   mean %.2e  median %.2e  (mean/median %.0fx)\n",
		rs.Mean, rs.Median, rs.Mean/max(rs.Median, 1))
	fmt.Fprintf(&b, "write BW (B/s):  mean %.2e  median %.2e  (mean/median %.0fx)\n",
		ws.Mean, ws.Median, ws.Mean/max(ws.Median, 1))
	if len(all) > 0 {
		span := all[len(all)-1].SubmitTime - all[0].SubmitTime
		fmt.Fprintf(&b, "trace span:      %.1f days\n", float64(span)/86400)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeCSV(w io.Writer, all []trace.Job) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"id", "user", "group", "account", "script_id", "submit", "nodes", "tasks",
		"requested_min", "actual_sec", "read_bytes", "write_bytes", "canceled",
	}); err != nil {
		return err
	}
	for _, j := range all {
		if err := cw.Write([]string{
			fmt.Sprint(j.ID), j.User, j.Group, j.Account, fmt.Sprint(j.ScriptID),
			fmt.Sprint(j.SubmitTime), fmt.Sprint(j.Nodes), fmt.Sprint(j.Tasks),
			fmt.Sprint(j.RequestedMin), fmt.Sprint(j.ActualSec),
			fmt.Sprint(j.ReadBytes), fmt.Sprint(j.WriteBytes), fmt.Sprint(j.Canceled),
		}); err != nil {
			return err
		}
	}
	// Flush buffers through to w; csv.Writer surfaces the error via
	// Error(), which a deferred Flush would have dropped.
	cw.Flush()
	return cw.Error()
}
