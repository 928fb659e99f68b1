package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/pilot"
	"prionn/internal/serve"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// A phase's percentile is the median over five equal time slices of the
// slice percentile, so a stall confined to one slice moves one slice and
// not the metric; the pooled percentile still shows it.
func TestSliceMedianIgnoresOneStalledSlice(t *testing.T) {
	const length, n = 5 * time.Second, phaseSlices * minSliceSamples
	var samples []sample
	for i := 0; i < n; i++ {
		due := time.Duration(i) * length / n
		lat := time.Duration(1+i%10) * time.Millisecond // per slice: 1..10 ms, equally often
		if i/minSliceSamples == 2 {
			lat += 100 * time.Millisecond // slice 2 stalls
		}
		samples = append(samples, sample{due: due, lat: lat, ok: true})
	}
	samples = append(samples, sample{due: time.Second, lat: time.Hour}) // a failure carries no latency
	if got := sliceMedian(samples, length, 0.50); !near(got, 5, 1e-9) {
		t.Errorf("p50 = %v ms, want 5 (the clean slices' median)", got)
	}
	if got := sliceMedian(samples, length, 0.95); !near(got, 10, 1e-9) {
		t.Errorf("p95 = %v ms, want 10", got)
	}
	if got := slicePercentiles(samples, length, 0.95); len(got) != phaseSlices || !near(got[2], 110, 1e-9) {
		t.Errorf("slice p95s = %v, want five with the third at 110", got)
	}
	if got := stallSlices(samples, length); got != 1 {
		t.Errorf("stall slices = %d, want 1", got)
	}
	if got := pooled(samples, 0.99, func(s sample) time.Duration { return s.lat }); got < 100 {
		t.Errorf("pooled p99 = %v ms: the stall must stay visible there", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, c.q); !near(got, c.want, 0) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is how the driver computes a metric's spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75, 1e-12) || !near(med, 5.5, 1e-12) || !near(q3, 8.25, 1e-12) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if !near(q1, 1.5, 1e-12) || !near(med, 3, 1e-12) || !near(q3, 4.5, 1e-12) {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one value: %v %v %v", q1, med, q3)
	}
}

func TestArrivalsSeededPoisson(t *testing.T) {
	const rate, length = 300.0, 20 * time.Second
	a, b := arrivals(7, 2, rate, length), arrivals(7, 2, rate, length)
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, due time %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	if a[len(a)-1] >= length {
		t.Errorf("last due time %v is past the phase", a[len(a)-1])
	}
	want := rate * length.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals, want %v ± %v", n, want, 4*math.Sqrt(want))
	}
	if c := arrivals(8, 2, rate, length); len(c) == len(a) && c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
	if c := arrivals(7, 3, rate, length); c[0] == a[0] {
		t.Error("another phase of the same seed gave the same schedule")
	}
}

func TestStreamSeededSkewAndUniqueShare(t *testing.T) {
	pool := buildPool(5, 200)
	if len(pool) != 200 {
		t.Fatalf("pool has %d scripts, want 200", len(pool))
	}
	seen := map[string]bool{}
	for _, e := range pool {
		if seen[e.job.Script] {
			t.Fatal("pool scripts must be distinct")
		}
		seen[e.job.Script] = true
	}

	const n, unique = 40000, 0.37
	a, b := newStream(5, 1, len(pool), unique), newStream(5, 1, len(pool), unique)
	counts := make([]int, len(pool))
	fresh := 0
	freshSeen := map[int64]bool{}
	for i := 0; i < n; i++ {
		ra, rb := a.next(), b.next()
		if ra != rb || ra.body(pool) != rb.body(pool) {
			t.Fatalf("same seed, request %d differs", i)
		}
		counts[ra.pool]++
		if ra.fresh > 0 {
			fresh++
			if freshSeen[ra.fresh] {
				t.Fatalf("fresh number %d used twice", ra.fresh)
			}
			freshSeen[ra.fresh] = true
		}
	}
	if share := float64(fresh) / n; !near(share, unique, 0.01) {
		t.Errorf("unique share %.4f, want %.2f ± 0.01", share, unique)
	}
	// Zipf(s = 1.1, v = 1): P(k) ∝ (1+k)^-1.1 over the pool.
	var h float64
	for k := range pool {
		h += math.Pow(float64(1+k), -1.1)
	}
	if got, want := float64(counts[0])/n, 1/h; !near(got, want, 0.01) {
		t.Errorf("most popular script's share %.4f, want %.4f ± 0.01", got, want)
	}
	var top, wantTop float64
	for k := 0; k < len(pool)/10; k++ {
		top += float64(counts[k]) / n
		wantTop += math.Pow(float64(1+k), -1.1) / h
	}
	if !near(top, wantTop, 0.015) {
		t.Errorf("top-decile share %.4f, want %.4f ± 0.015", top, wantTop)
	}
	if newStream(5, 1, len(pool), 1).next().fresh == newStream(5, 2, len(pool), 1).next().fresh {
		t.Error("two streams of one workload share a fresh-number range")
	}
}

// The body is assembled from pre-escaped halves; it must decode to
// exactly the script the oracle is asked about, fresh line included.
func TestRequestBodyMatchesScript(t *testing.T) {
	pool := buildPool(2, 20)
	for i, e := range pool {
		for _, r := range []request{{pool: i}, {pool: i, fresh: 12345}} {
			var got struct {
				Script       string `json:"script"`
				RequestedMin int    `json:"requested_min"`
			}
			if err := json.Unmarshal([]byte(r.body(pool)), &got); err != nil {
				t.Fatalf("body is not JSON: %v\n%s", err, r.body(pool))
			}
			if got.Script != r.script(pool) || got.RequestedMin != e.job.RequestedMin {
				t.Fatalf("body decodes to another request than script() gives")
			}
			if r.fresh > 0 {
				lines := strings.Split(got.Script, "\n")
				if !strings.HasPrefix(lines[0], "#!") || lines[1] != "#SBATCH --job-name=pb-12345" {
					t.Fatalf("fresh line must follow the shebang, got %q / %q", lines[0], lines[1])
				}
				if strings.Replace(got.Script, lines[1]+"\n", "", 1) != e.job.Script {
					t.Fatal("a fresh script must be the pool script plus one line")
				}
			}
		}
	}
}

func TestPhaseLengthsScaleToSeconds(t *testing.T) {
	for _, w := range workloads {
		var sum time.Duration
		for _, p := range w.phases {
			sum += w.phaseLength(p, 20)
		}
		if d := sum - 20*time.Second; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("%s: phases sum to %v at -seconds 20", w.name, sum)
		}
		if got := w.phaseLength(w.phases[0], 0).Seconds(); !near(got, w.phases[0].nominal, 1e-9) {
			t.Errorf("%s: -seconds 0 must give the nominal length, got %v", w.name, got)
		}
	}
}

func serveSnap(served, batches, mapNs, fwdNs, rejected int64, hist map[int]int64) serve.Snapshot {
	s := serve.Snapshot{Served: served, Batches: batches, MapNs: mapNs, ForwardNs: fwdNs, Rejected: rejected}
	for i, c := range hist {
		s.BatchHist[i] = c
	}
	return s
}

func mustStats(t *testing.T, doc any, at time.Time) statsSnap {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := parseStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	sn.at = at
	return sn
}

func TestStatsDeltaSingleServer(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := mustStats(t, serveSnap(1000, 500, 1e6, 9e6, 1, map[int]int64{0: 400, 1: 100}), t0)
	b := mustStats(t, serveSnap(1600, 600, 3e6, 4.09e8, 4, map[int]int64{0: 420, 1: 110, 3: 70}), t0.Add(time.Second))
	if a.cluster != nil || len(a.loops) != 1 {
		t.Fatalf("single-server /stats must parse as one loop, got %d loops, cluster %v", len(a.loops), a.cluster != nil)
	}
	d := deltaLoops(a, b)
	if d.answered != 600 || d.batches != 100 || d.rejected != 3 {
		t.Fatalf("delta %+v", d)
	}
	if !near(d.meanBatch(), 6, 1e-12) {
		t.Errorf("mean batch %v, want 6", d.meanBatch())
	}
	if !near(d.mapMsPerBatch(), 0.02, 1e-12) || !near(d.fwdMsPerBatch(), 4, 1e-12) {
		t.Errorf("per-batch map %v fwd %v, want 0.02 and 4", d.mapMsPerBatch(), d.fwdMsPerBatch())
	}
	if !near(d.busyFrac(), 0.402, 1e-12) {
		t.Errorf("busy frac %v, want 0.402", d.busyFrac())
	}
	if got := d.topBatchSizes(2); len(got) != 2 || got[0] != 8 || got[1] != 1 {
		t.Errorf("top batch sizes %v, want [8 1]", got)
	}
	if imbalance(a, b) != 0 {
		t.Error("a single server has no replica imbalance")
	}
}

func TestStatsDeltaCluster(t *testing.T) {
	doc := func(hits, misses int64, r0, r1 serve.Snapshot, d0, d1, events int64) any {
		return struct {
			cluster.Snapshot
			SnapshotBytes int64        `json:"snapshot_bytes"`
			Pipeline      pilot.Status `json:"pipeline"`
		}{
			Snapshot: cluster.Snapshot{
				CacheHits: hits, CacheMisses: misses, P50Ns: 5e6,
				Replicas: []cluster.ReplicaSnapshot{{ID: 0, Dispatched: d0, CacheHits: hits, Serve: r0}, {ID: 1, Dispatched: d1, Serve: r1}},
			},
			Pipeline: pilot.Status{Events: events},
		}
	}
	t0 := time.Unix(100, 0)
	a := mustStats(t, doc(100, 10, serveSnap(10, 10, 0, 1e6, 0, nil), serveSnap(0, 0, 0, 0, 0, nil), 10, 0, 2), t0)
	b := mustStats(t, doc(1000, 110, serveSnap(70, 40, 0, 2.01e8, 0, nil), serveSnap(40, 20, 0, 1e8, 0, nil), 70, 40, 5), t0.Add(2*time.Second))
	if b.cluster == nil || len(b.loops) != 2 || b.pipeline == nil || b.pipeline.Events != 5 {
		t.Fatalf("cluster /stats must parse as two loops with a pipeline: %+v", b)
	}
	d := deltaLoops(a, b)
	if d.answered != 100 || d.batches != 50 || d.loops != 2 {
		t.Fatalf("delta %+v", d)
	}
	// (0.2 s + 0.1 s of forward) over 2 s on 2 loops.
	if !near(d.busyFrac(), 0.075, 1e-12) {
		t.Errorf("busy frac %v, want 0.075 (the mean over replicas)", d.busyFrac())
	}
	// Dispatch deltas 60 and 40: (60 − 40) ÷ 50.
	if got := imbalance(a, b); !near(got, 0.4, 1e-12) {
		t.Errorf("imbalance %v, want 0.4", got)
	}
}

func TestParseProcStat(t *testing.T) {
	line := "4242 (prionnd (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 5 0 100 0 0"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * time.Second; got != want {
		t.Errorf("cpu time %v, want %v (1234+66 ticks at 100 Hz)", got, want)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage must not parse")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms.lo", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "sat_rps", Better: "higher", Bound: 0.05}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		def          metricDef
		base, change summary
		want         string
	}{
		{lower, tight(10), tight(10.5), "same"},
		{lower, tight(10), tight(11), "worse"},
		{lower, tight(10), tight(9), "better"},
		{higher, tight(1000), tight(940), "worse"},
		{higher, tight(1000), tight(1060), "better"},
		{higher, tight(1000), tight(960), "same"},
		{lower, tight(10), summary{Median: 12, Q1: 11, Q3: 13}, "unresolved"},
	} {
		if got, _ := judge(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.base.Median, c.change.Median, got, c.want)
		}
	}
}

// A phase too short to fill five slices of minSliceSamples has its
// percentiles taken over fewer, longer slices: a slice p95 needs samples
// beyond it.
func TestShortPhaseUsesFewerSlices(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 1}, {239, 1}, {311, 1}, {533, 2}, {890, 3}, {1199, 4}, {1200, 5}, {20000, 5}} {
		if got := percentileSlices(c.n); got != c.want {
			t.Errorf("%d samples: %d slices, want %d", c.n, got, c.want)
		}
	}
	const length = 10 * time.Second
	var samples []sample
	for i := 0; i < 2*minSliceSamples; i++ { // two slices' worth: first half 1 ms, second half 3 ms
		lat := time.Millisecond
		if i >= minSliceSamples {
			lat = 3 * time.Millisecond
		}
		samples = append(samples, sample{due: time.Duration(i) * length / (2 * minSliceSamples), lat: lat, ok: true})
	}
	if got := slicePercentiles(samples, length, 0.5); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("slice medians %v, want [1 3]", got)
	}
	if got := sliceMedian(samples, length, 0.5); !near(got, 2, 1e-12) {
		t.Errorf("median over two slices %v, want 2", got)
	}
}

// Slices of one phase are measured apart (interleaved with the other
// phases'): add must place each slice's samples in its own time slice
// and keep one counter window per slice, and the phase's loop activity is
// the sum over those windows.
func TestPhaseAddKeepsSlicesApart(t *testing.T) {
	const slice = 2 * time.Second
	t0 := time.Unix(100, 0)
	ph := phaseResult{length: phaseSlices * slice}
	for r := 0; r < phaseSlices; r++ {
		lat := time.Duration(r+1) * time.Millisecond
		at := t0.Add(time.Duration(r) * time.Minute)
		part := phaseResult{
			samples: make([]sample, minSliceSamples),
			sent:    2,
			windows: []window{{
				before: mustStats(t, serveSnap(int64(100*r), int64(10*r), 0, 0, 0, nil), at),
				after:  mustStats(t, serveSnap(int64(100*r+40), int64(10*r+4), 0, 5e8, 0, nil), at.Add(time.Second)),
				sent:   2, wall: time.Second, cpu: time.Duration(r+1) * 10 * time.Millisecond,
			}},
		}
		for i := range part.samples {
			part.samples[i] = sample{due: time.Duration(i) * slice / minSliceSamples, lat: lat, ok: true}
		}
		ph.add(part, time.Duration(r)*slice)
	}
	if got := slicePercentiles(ph.samples, ph.length, 0.5); len(got) != phaseSlices || got[0] != 1 || got[4] != 5 {
		t.Errorf("slice medians %v, want 1..5 ms in order", got)
	}
	d := ph.delta()
	if d.answered != 200 || d.batches != 20 || d.wall != 5*time.Second || !near(d.busyFrac(), 0.5, 1e-12) {
		t.Errorf("summed delta %+v busy %v, want 200 answered in 20 batches over 5 s, half busy", d, d.busyFrac())
	}
	if got := ph.medianOverWindows(func(w window) float64 { return ms(w.cpu) / float64(w.sent) }); !near(got, 15, 1e-12) {
		t.Errorf("median CPU per request %v ms, want 15 (the third slice)", got)
	}
}
