// Package trace records experiment time series and renders them as CSV,
// the format cmd/experiments uses to regenerate the paper's figures as
// data.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Series is one named time series sampled at 1 Hz ticks.
type Series struct {
	Name   string
	Values []float64
}

// Append adds a sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Table is a set of equally indexed series (columns) — one figure's data.
type Table struct {
	// TickLabel names the index column (default "tick").
	TickLabel string
	Columns   []*Series
}

// NewTable creates a table with the given column names.
func NewTable(names ...string) *Table {
	t := &Table{TickLabel: "tick", Columns: make([]*Series, len(names))}
	for i, n := range names {
		t.Columns[i] = &Series{Name: n}
	}
	return t
}

// AppendRow adds one sample to every column. The value count must match
// the column count.
func (t *Table) AppendRow(values ...float64) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("trace: row has %d values for %d columns", len(values), len(t.Columns))
	}
	for i, v := range values {
		t.Columns[i].Append(v)
	}
	return nil
}

// Rows returns the number of complete rows (minimum column length).
func (t *Table) Rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	n := t.Columns[0].Len()
	for _, c := range t.Columns[1:] {
		if c.Len() < n {
			n = c.Len()
		}
	}
	return n
}

// WriteCSV writes the table with a header row and a leading tick column.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(t.Columns)+1)
	label := t.TickLabel
	if label == "" {
		label = "tick"
	}
	header = append(header, label)
	for _, c := range t.Columns {
		header = append(header, c.Name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	rows := t.Rows()
	rec := make([]string, len(header))
	for i := 0; i < rows; i++ {
		rec[0] = strconv.Itoa(i)
		for j, c := range t.Columns {
			rec[j+1] = strconv.FormatFloat(c.Values[i], 'g', 8, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
