package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Scale sizes an experiment run. Full is the published configuration; Smoke
// shrinks the experiments that take half a second or more, so a test can run
// every experiment and assert its deterministic gates.
type Scale int

const (
	Smoke Scale = iota // the shrunk size go test runs
	Full               // the published size lmo-bench runs
)

// Kind says what decides a gate's value, and so where it can be asserted.
type Kind int

const (
	// Exact gates check token equality and conservation counts.
	Exact Kind = iota
	// Model gates check simulator and model values, which one seed fixes.
	Model
	// WallClock gates check anything timed on the host. go test does not
	// assert them; the CI jobs that run the experiment at Full do.
	WallClock
)

func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Model:
		return "model"
	}
	return "wall-clock"
}

// Gate is one acceptance check: a measured value beside its bound.
type Gate struct {
	Name  string
	Kind  Kind
	Value float64
	Bound string // the condition Value must meet, e.g. "<= 1.25"
	Pass  bool
}

// atMost gates value <= bound.
func atMost(name string, kind Kind, value, bound float64) Gate {
	return Gate{Name: name, Kind: kind, Value: value, Bound: fmt.Sprintf("<= %g", bound), Pass: value <= bound}
}

// atLeast gates value >= bound.
func atLeast(name string, kind Kind, value, bound float64) Gate {
	return Gate{Name: name, Kind: kind, Value: value, Bound: fmt.Sprintf(">= %g", bound), Pass: value >= bound}
}

// holds gates a condition, recorded as the value 1 when it holds and 0
// when it does not.
func holds(name string, kind Kind, ok bool) Gate {
	v := 0.0
	if ok {
		v = 1
	}
	return Gate{Name: name, Kind: kind, Value: v, Bound: "= 1", Pass: ok}
}

// Report is what every experiment renders: a title, one table that prints
// as text or CSV from the same rows, free-text notes, and the gates.
type Report struct {
	Title string
	Table *stats.Table
	Notes []string
	Gates []Gate
}

// note appends one formatted note line.
func (r *Report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Text renders the title, the table, the notes and one line per gate.
func (r *Report) Text() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		b.WriteString(strings.TrimSuffix(n, "\n") + "\n")
	}
	for _, g := range r.Gates {
		b.WriteString(g.String() + "\n")
	}
	return b.String()
}

// String renders the gate as one report line.
func (g Gate) String() string {
	verdict := "pass"
	if !g.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("gate %-10s %s: %.4g (%s) %s", g.Kind, g.Name, g.Value, g.Bound, verdict)
}

// Failed returns the failed gates of the given kinds.
func (r *Report) Failed(kinds ...Kind) []Gate {
	var out []Gate
	for _, g := range r.Gates {
		for _, k := range kinds {
			if g.Kind == k && !g.Pass {
				out = append(out, g)
			}
		}
	}
	return out
}
