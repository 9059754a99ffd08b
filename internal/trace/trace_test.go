package trace

import (
	"strings"
	"testing"
)

func TestTableAppendAndRows(t *testing.T) {
	tbl := NewTable("a", "b")
	if tbl.Rows() != 0 {
		t.Fatalf("fresh Rows = %d", tbl.Rows())
	}
	if err := tbl.AppendRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(3, 4); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d", tbl.Rows())
	}
	if err := tbl.AppendRow(1); err == nil {
		t.Fatal("want arity error")
	}
	if col := tbl.Columns[1]; col.Len() != 2 || col.Values[1] != 4 {
		t.Fatalf("column b = %v", col.Values)
	}
}

func TestEmptyTableRows(t *testing.T) {
	tbl := NewTable()
	if tbl.Rows() != 0 {
		t.Fatal("no columns means no rows")
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := NewTable("power", "model")
	if err := tbl.AppendRow(151.5, 150.9); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(152.0, 151.1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "tick,power,model\n0,151.5,150.9\n1,152,151.1\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestWriteCSVCustomLabel(t *testing.T) {
	tbl := NewTable("x")
	tbl.TickLabel = "second"
	if err := tbl.AppendRow(1); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "second,x\n") {
		t.Fatalf("CSV header = %q", sb.String())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "x"
	s.Append(1)
	s.Append(2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}
