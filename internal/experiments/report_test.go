package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// syntheticChunked is a chunked-prefill result that passes both gates.
func syntheticChunked() *ChunkedResult {
	return &ChunkedResult{
		Model: model.Tiny(), PromptLen: 2048, Streams: 3, DecodeLen: 96,
		TokenExact: true, P99Speedup: 24.5,
		Arms: []ChunkedArm{
			{ChunkTokens: 0, TPOTP50: time.Millisecond, TPOTP99: 2450 * time.Millisecond, TPOTMax: 2500 * time.Millisecond, LongTTFT: 2500 * time.Millisecond, InFlight: 3, Gaps: 280, TPOTQErrP95: 1.4, TPOTQErrMax: 2.1, TPOTQErrN: 200},
			{ChunkTokens: 32, TPOTP50: time.Millisecond, TPOTP99: 100 * time.Millisecond, TPOTMax: 120 * time.Millisecond, LongTTFT: 2800 * time.Millisecond, During: 150, InFlight: 3, Gaps: 280, TPOTQErrP95: 1.3, TPOTQErrMax: 1.9, TPOTQErrN: 200},
		},
	}
}

// TestReportRendering checks every model-only experiment's report and a
// synthetic gated one: the text and the CSV hold the same rows, the CSV
// header is the table's column names, and every gate has its line.
func TestReportRendering(t *testing.T) {
	type reporter interface{ Report() *Report }
	runs := map[string]func() (reporter, error){
		"fig3":         func() (reporter, error) { return Figure3() },
		"fig4":         func() (reporter, error) { return Figure4() },
		"tab1":         func() (reporter, error) { return Table1() },
		"fig5":         func() (reporter, error) { return Figure5() },
		"tab3":         func() (reporter, error) { return Table3(nil, []int{8}) },
		"fig7":         func() (reporter, error) { return Figure7() },
		"fig8":         func() (reporter, error) { return Figure8() },
		"fig9":         func() (reporter, error) { return Figure9() },
		"scale":        func() (reporter, error) { return ScaleSweep(8) },
		"whatif":       func() (reporter, error) { return PlatformWhatIf(32) },
		"validation":   func() (reporter, error) { return ValidateModel(12, 7) },
		"ablations":    func() (reporter, error) { return Ablations() },
		"availability": func() (reporter, error) { return Availability(Smoke) },
		"chunked":      func() (reporter, error) { return syntheticChunked(), nil },
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, name, res.Report())
	}
}

func checkReport(t *testing.T, name string, rep *Report) {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(rep.Table.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("%s: CSV does not parse: %v", name, err)
	}
	if got, want := strings.Join(records[0], "|"), strings.Join(rep.Table.Columns(), "|"); got != want {
		t.Errorf("%s: CSV header %q, want the column names %q", name, got, want)
	}
	// The text is the title, the header, a dash rule giving each column's
	// width, then one line per CSV record.
	lines := strings.Split(rep.Text(), "\n")
	if lines[0] != rep.Title || len(lines) < len(records)+2 {
		t.Fatalf("%s: text does not open with the title and the table:\n%s", name, rep.Text())
	}
	var widths []int
	for _, rule := range strings.Split(lines[2], "  ") {
		widths = append(widths, len(rule))
	}
	for i, rec := range records {
		line := lines[1]
		if i > 0 {
			line = lines[i+2]
		}
		if len(rec) != len(widths) {
			t.Fatalf("%s: CSV record %d has %d cells for %d columns", name, i, len(rec), len(widths))
		}
		cells := make([]string, len(rec))
		for j, c := range rec {
			cells[j] = fmt.Sprintf("%-*s", widths[j], c)
		}
		if want := strings.Join(cells, "  "); line != want {
			t.Errorf("%s: text line %q, CSV record renders as %q", name, line, want)
		}
	}
	if rows := rep.Table.Rows(); rows != len(records)-1 {
		t.Errorf("%s: CSV has %d rows, table %d", name, len(records)-1, rows)
	}
	for _, g := range rep.Gates {
		if !strings.Contains(rep.Text(), "\n"+g.String()+"\n") {
			t.Errorf("%s: gate line %q not rendered", name, g)
		}
	}
}

// TestChunkedGates: the synthetic passing result fails no gate, a
// token-inexact arm fails one Exact gate, and so does an arm whose long
// prompt arrived with no background stream in flight.
func TestChunkedGates(t *testing.T) {
	r := syntheticChunked()
	if failed := r.Report().Failed(Exact, Model, WallClock); len(failed) != 0 {
		t.Errorf("synthetic passing result failed %v", failed)
	}
	r.TokenExact = false
	if failed := r.Report().Failed(Exact); len(failed) != 1 {
		t.Errorf("token-inexact result failed Exact gates %v, want one", failed)
	}
	r = syntheticChunked()
	r.Arms[1].InFlight = 0
	if failed := r.Report().Failed(Exact); len(failed) != 1 {
		t.Errorf("result with no stream in flight failed Exact gates %v, want one", failed)
	}
}
