package trace

import (
	"cmp"
	"context"
	"slices"
)

// Replay drives the paper's online schedule (§2.3) over a trace in
// submission order. It is the only code that knows that schedule;
// PRIONN, the traditional baselines and the cold-start ablation all
// replay a trace through it, so they see the same training windows:
//
//   - a job ends ActualSec seconds after its SubmitTime and counts as
//     completed once that end is at or before the current submission;
//     canceled jobs never complete;
//   - completions are ordered by end time, ties in submission order;
//   - after every `every` submissions, once at least one job has
//     completed, retrain(i, win) runs at submission i with the `window`
//     most recent completions (indices into jobs, oldest first; win
//     aliases Replay's own slice and must not be modified);
//   - from the first retrain on, predict(i) runs for every non-canceled
//     submission i, after any retrain at i.
//
// ctx is polled at every submission. Its error, or retrain's, is
// returned unchanged and ends the replay.
func Replay(ctx context.Context, jobs []Job, every, window int, retrain func(i int, win []int) error, predict func(i int)) error {
	end := func(i int) int64 { return jobs[i].SubmitTime + jobs[i].ActualSec }
	byEnd := make([]int, 0, len(jobs)) // non-canceled jobs; the first `completed` have ended
	for i, j := range jobs {
		if !j.Canceled {
			byEnd = append(byEnd, i)
		}
	}
	slices.SortStableFunc(byEnd, func(a, b int) int { return cmp.Compare(end(a), end(b)) })

	completed, since, trained := 0, 0, false
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		for completed < len(byEnd) && end(byEnd[completed]) <= j.SubmitTime {
			completed++
		}
		since++
		if since >= every && completed > 0 {
			if err := retrain(i, byEnd[max(0, completed-window):completed]); err != nil {
				return err
			}
			since, trained = 0, true
		}
		if trained && !j.Canceled {
			predict(i)
		}
	}
	return nil
}
