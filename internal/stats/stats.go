// Package stats provides the small numeric and formatting helpers the
// experiment generators share: tables rendered as aligned text (the tool
// output mirrors the paper's tables) or CSV, and aggregate statistics (means, geometric means,
// speedup summaries, latency quantiles).
package stats

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, cells ...interface{}) {
	parts := strings.Split(fmt.Sprintf(format, cells...), "\t")
	t.AddRow(parts...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the same header and rows as comma-separated values.
func (t *Table) CSV() string {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(t.header) // a bytes.Buffer write cannot fail
	_ = w.WriteAll(t.rows)
	return buf.String()
}

// Columns returns the column headers.
func (t *Table) Columns() []string { return t.header }

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean; all inputs must be positive
// (non-positive values yield NaN to surface the bug).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Max returns the maximum, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantiles returns the mean, p50, and p99 of a latency sample set (zeros
// when empty); p50 and p99 are the sorted samples at indexes n/2 and
// 99n/100. The input is not modified.
func Quantiles(samples []time.Duration) (mean, p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return sum / time.Duration(len(sorted)), sorted[len(sorted)/2], sorted[(len(sorted)*99)/100]
}

// Min returns the minimum, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// SpeedupSummary aggregates pairwise ratios the way the paper reports them:
// "up to X× (Y× on average)".
type SpeedupSummary struct {
	Max  float64
	Mean float64
	Geo  float64
	N    int
}

// Speedups computes the summary of a/b element-wise.
func Speedups(a, b []float64) (SpeedupSummary, error) {
	if len(a) != len(b) || len(a) == 0 {
		return SpeedupSummary{}, fmt.Errorf("stats: speedup inputs must be equal-length and non-empty (%d, %d)", len(a), len(b))
	}
	ratios := make([]float64, len(a))
	for i := range a {
		if b[i] <= 0 {
			return SpeedupSummary{}, fmt.Errorf("stats: non-positive baseline %g at %d", b[i], i)
		}
		ratios[i] = a[i] / b[i]
	}
	return SpeedupSummary{Max: Max(ratios), Mean: Mean(ratios), Geo: GeoMean(ratios), N: len(ratios)}, nil
}

// String renders the paper-style summary.
func (s SpeedupSummary) String() string {
	return fmt.Sprintf("up to %.2fx (%.2fx on average, n=%d)", s.Max, s.Mean, s.N)
}

// GB formats bytes as gigabytes with two decimals (decimal GB, as the paper
// uses for I/O volumes).
func GB(bytes float64) string { return fmt.Sprintf("%.2f GB", bytes/1e9) }

// GiB formats bytes as binary gigabytes (the paper's memory columns).
func GiB(bytes int64) string { return fmt.Sprintf("%.0f GB", float64(bytes)/(1<<30)) }
