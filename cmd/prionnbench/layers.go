package main

import (
	"time"

	"prionn/internal/serve"
)

// loopDelta is what the daemon's inference loops did between two /stats
// reads, summed over loops (one per server or replica).
type loopDelta struct {
	answered int64 // served + fallback + errored
	batches  int64
	mapNs    int64
	fwdNs    int64
	rejected int64
	loops    int
	wall     time.Duration
	hist     []int64 // batch-size histogram, bucket i = sizes in (2^(i-1), 2^i]
}

func answered(s serve.Snapshot) int64 { return s.Served + s.Fallback + s.Errored }

// delta is the phase's loop activity: the sum over its windows.
func (p *phaseResult) delta() loopDelta {
	var sum loopDelta
	for _, w := range p.windows {
		d := deltaLoops(w.before, w.after)
		sum.answered += d.answered
		sum.batches += d.batches
		sum.mapNs += d.mapNs
		sum.fwdNs += d.fwdNs
		sum.rejected += d.rejected
		sum.wall += d.wall
		sum.loops = d.loops
		if sum.hist == nil {
			sum.hist = make([]int64, len(d.hist))
		}
		for k, c := range d.hist {
			sum.hist[k] += c
		}
	}
	return sum
}

func deltaLoops(a, b statsSnap) loopDelta {
	d := loopDelta{loops: len(b.loops), wall: b.at.Sub(a.at)}
	for i, after := range b.loops {
		var before serve.Snapshot
		if i < len(a.loops) {
			before = a.loops[i]
		}
		d.answered += answered(after) - answered(before)
		d.batches += after.Batches - before.Batches
		d.mapNs += after.MapNs - before.MapNs
		d.fwdNs += after.ForwardNs - before.ForwardNs
		d.rejected += after.Rejected - before.Rejected
		if d.hist == nil {
			d.hist = make([]int64, len(after.BatchHist))
		}
		for k := range after.BatchHist {
			d.hist[k] += after.BatchHist[k] - before.BatchHist[k]
		}
	}
	return d
}

// meanBatch is answered requests per flush.
func (d loopDelta) meanBatch() float64 { return ratio(float64(d.answered), float64(d.batches)) }

// busyFrac is the share of wall time the loops spent in map + forward,
// as the mean over loops.
func (d loopDelta) busyFrac() float64 {
	return ratio(float64(d.mapNs+d.fwdNs), float64(d.wall.Nanoseconds())*float64(d.loops))
}

func (d loopDelta) mapMsPerBatch() float64 { return ratio(float64(d.mapNs)/1e6, float64(d.batches)) }
func (d loopDelta) fwdMsPerBatch() float64 { return ratio(float64(d.fwdNs)/1e6, float64(d.batches)) }

// topBatchSizes returns the upper sizes of the up-to-n most used batch
// buckets, most used first.
func (d loopDelta) topBatchSizes(n int) []int {
	var out []int
	used := make([]bool, len(d.hist))
	for len(out) < n {
		best := -1
		for i, c := range d.hist {
			if c > 0 && !used[i] && (best < 0 || c > d.hist[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, 1<<best)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// imbalance is (max − min) ÷ mean of the replicas' dispatch counts over
// the run: 0 when the router spread the misses evenly.
func imbalance(a, b statsSnap) float64 {
	if b.cluster == nil || len(b.cluster.Replicas) == 0 {
		return 0
	}
	var lo, hi, sum float64
	for i, r := range b.cluster.Replicas {
		n := float64(r.Dispatched)
		if a.cluster != nil && i < len(a.cluster.Replicas) {
			n -= float64(a.cluster.Replicas[i].Dispatched)
		}
		if i == 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
		sum += n
	}
	return ratio(hi-lo, sum/float64(len(b.cluster.Replicas)))
}

// phaseByName finds the phase reported under name (its own or its alias).
func (r *workloadResult) phaseByName(name string) *phaseResult {
	for i := range r.phases {
		if r.phases[i].def.name == name || r.phases[i].def.alias == name {
			return &r.phases[i]
		}
	}
	return nil
}

// statsLayers fills the per-layer metrics that come from the load run
// itself: the generator's own counts and /stats deltas over the phases.
func statsLayers(m metricSet, res *workloadResult) {
	first, last := res.first, res.last
	whole := deltaLoops(first, last)

	// http: the front end as the generator saw it.
	var s503, sOther, stalls, c503 int
	var late []sample
	for _, ph := range res.phases {
		s503 += ph.s503
		sOther += ph.sOther
		c503 += ph.complete503
		if ph.def.rate > 0 {
			stalls += stallSlices(ph.samples, ph.length)
			late = append(late, ph.samples...)
		}
	}
	m.put("http.status_503", float64(s503))
	m.put("http.status_other", float64(sOther))
	m.put("http.stall_slices", float64(stalls))
	m.put("http.gen_late_p99_ms", pooled(late, 0.99, func(s sample) time.Duration { return s.late }))
	lat := func(s sample) time.Duration { return s.lat }
	if ph := res.phaseByName("lo"); ph != nil {
		m.put("http.p99_ms.lo", pooled(ph.samples, 0.99, lat))
		m.put("serve.mean_batch.lo", ph.delta().meanBatch())
	}
	if ph := res.phaseByName("mid"); ph != nil {
		d := ph.delta()
		m.put("http.p99_ms.mid", pooled(ph.samples, 0.99, lat))
		m.put("http.p999_ms.mid", pooled(ph.samples, 0.999, lat))
		m.put("serve.mean_batch.mid", d.meanBatch())
		m.put("serve.map_ms_per_batch.mid", d.mapMsPerBatch())
		m.put("serve.forward_ms_per_batch.mid", d.fwdMsPerBatch())
		m.put("serve.loop_busy_frac.mid", d.busyFrac())
	}
	if ph := res.phaseByName("sat"); ph != nil {
		d := ph.delta()
		m.put("serve.mean_batch.sat", d.meanBatch())
		m.put("serve.loop_busy_frac.sat", d.busyFrac())
	}
	m.put("serve.rejected", float64(whole.rejected))

	if a, b := first.cluster, last.cluster; a != nil && b != nil {
		hits, misses := b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses
		m.put("cluster.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
		// The dispatch percentiles are the daemon's own recent-window
		// figures at the end of the run, not a delta.
		m.put("cluster.dispatch_p50_ms", float64(b.P50Ns)/1e6)
		m.put("cluster.dispatch_p99_ms", float64(b.P99Ns)/1e6)
		m.put("cluster.retries", float64(b.Retries-a.Retries))
		m.put("cluster.hedges", float64(b.Hedges-a.Hedges))
		m.put("cluster.degraded", float64(b.Degraded-a.Degraded))
		m.put("cluster.replica_imbalance", imbalance(first, last))
	}
	if a, b := first.pipeline, last.pipeline; a != nil && b != nil {
		m.put("pilot.events", float64(b.Events-a.Events))
		m.put("pilot.shadow_accepted", float64(b.ShadowAccepted-a.ShadowAccepted))
		m.put("pilot.shadow_rejected", float64(b.ShadowRejected-a.ShadowRejected))
		m.put("pilot.canary_starts", float64(b.CanaryStarts-a.CanaryStarts))
		m.put("pilot.canary_promotions", float64(b.CanaryPromotions-a.CanaryPromotions))
		m.put("pilot.canary_rollbacks", float64(b.CanaryRollbacks-a.CanaryRollbacks))
		m.put("pilot.complete_503", float64(c503))
		if q, l := res.EndToEnd["p95_ms.quiet"], res.EndToEnd["p95_ms.learn"]; q.Value > 0 {
			m.put("pilot.interference_ratio", l.Value/q.Value)
		}
	}
}
