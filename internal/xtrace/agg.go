package xtrace

import (
	"sort"
	"time"
)

// TaskStat accumulates the spans of one task name.
type TaskStat struct {
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Summary is the aggregate view of a span set: per-task totals, per-lane
// busy time (union of intervals, so nested sub-spans do not double-count a
// lane), and the wall-clock envelope.
type Summary struct {
	Tasks map[string]TaskStat
	// LaneBusy is the covered (union) time per lane.
	LaneBusy map[string]time.Duration
	// Wall is latest end minus earliest start across all spans.
	Wall time.Duration
	// Covered is the union of all span intervals regardless of lane: the
	// time at least one task was running.
	Covered time.Duration
}

// Aggregate summarizes spans. AggregateIf restricts to spans passing keep.
func Aggregate(spans []Span) *Summary { return AggregateIf(spans, nil) }

// AggregateIf summarizes the spans for which keep returns true (nil keep
// means all spans).
func AggregateIf(spans []Span, keep func(Span) bool) *Summary {
	sum := &Summary{Tasks: map[string]TaskStat{}, LaneBusy: map[string]time.Duration{}}
	var kept []Span
	first, last := time.Duration(1<<62), time.Duration(0)
	for _, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		kept = append(kept, s)
		st := sum.Tasks[s.Name]
		if st.Count == 0 || s.Dur < st.Min {
			st.Min = s.Dur
		}
		if s.Dur > st.Max {
			st.Max = s.Dur
		}
		st.Count++
		st.Total += s.Dur
		sum.Tasks[s.Name] = st
		if s.Start < first {
			first = s.Start
		}
		if s.End() > last {
			last = s.End()
		}
	}
	if len(kept) == 0 {
		return sum
	}
	sum.Wall = last - first
	byLane := map[string][]Span{}
	for _, s := range kept {
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	for lane, ls := range byLane {
		sum.LaneBusy[lane] = coveredTime(ls)
	}
	sum.Covered = coveredTime(kept)
	return sum
}

// Total returns the summed duration of one task (0 if absent).
func (s *Summary) Total(name string) time.Duration { return s.Tasks[name].Total }

// ArgmaxTask returns the task with the largest total among names — the
// empirical counterpart of the Eq. 2 argmax. Ties break toward the earlier
// name in the list; names with no spans count as zero.
func (s *Summary) ArgmaxTask(names ...string) string {
	best, bestT := "", time.Duration(-1)
	for _, n := range names {
		if t := s.Tasks[n].Total; t > bestT {
			best, bestT = n, t
		}
	}
	return best
}

// coveredTime computes the union length of the spans' intervals.
func coveredTime(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([]Span, len(spans))
	copy(iv, spans)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curStart, curEnd := iv[0].Start, iv[0].End()
	for _, s := range iv[1:] {
		if s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End()
			continue
		}
		if s.End() > curEnd {
			curEnd = s.End()
		}
	}
	return total + (curEnd - curStart)
}

// Durations returns every retained duration of one task name in recording
// order — the raw samples for a per-step histogram of e.g. decode_step.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// Attribution splits covered wall-clock time among task names: every instant
// where at least one of the named tasks is active is divided equally among
// the tasks active at that instant. The totals therefore sum to the union
// coverage of the named tasks, and the largest share identifies the
// critical-path task — the one Eq. 2's max says should bound the step. Spans
// whose names are not listed are ignored.
func Attribution(spans []Span, names ...string) map[string]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	type edge struct {
		at    time.Duration
		name  string
		delta int
	}
	var edges []edge
	for _, s := range spans {
		if !want[s.Name] || s.Dur <= 0 {
			continue
		}
		edges = append(edges, edge{s.Start, s.Name, +1}, edge{s.End(), s.Name, -1})
	}
	out := map[string]time.Duration{}
	if len(edges) == 0 {
		return out
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta // opens before closes at ties
	})
	active := map[string]int{}
	prev := edges[0].at
	for _, e := range edges {
		if e.at > prev {
			n := 0
			for _, c := range active {
				if c > 0 {
					n++
				}
			}
			if n > 0 {
				share := (e.at - prev) / time.Duration(n)
				for name, c := range active {
					if c > 0 {
						out[name] += share
					}
				}
			}
			prev = e.at
		}
		active[e.name] += e.delta
	}
	return out
}
