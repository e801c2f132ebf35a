package relation

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"textjoin/internal/value"
)

const sampleCSV = `name, area, year:int, gpa:float, funded:bool
Gravano, AI, 4, 3.9, true
Kao, DB, 2, 3.5, false
Pham, , 5, , true
`

func TestLoadCSV(t *testing.T) {
	tbl, err := LoadCSV("student", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cardinality() != 3 {
		t.Fatalf("rows = %d", tbl.Cardinality())
	}
	s := tbl.Schema
	if s.Cols[0].Kind != value.KindString || s.Cols[2].Kind != value.KindInt ||
		s.Cols[3].Kind != value.KindFloat || s.Cols[4].Kind != value.KindBool {
		t.Fatalf("schema = %v", s)
	}
	if s.ColumnIndex("year") != 2 {
		t.Fatalf("typed header not stripped: %v", s)
	}
	if !value.Equal(tbl.Rows[0][2], value.Int(4)) || tbl.Rows[0][3].AsFloat() != 3.9 || !value.Equal(tbl.Rows[0][4], value.Bool(true)) {
		t.Fatalf("row 0 = %v", tbl.Rows[0])
	}
	// Empty cells are NULL.
	if !tbl.Rows[2][1].IsNull() || !tbl.Rows[2][3].IsNull() {
		t.Fatalf("row 2 = %v", tbl.Rows[2])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	bad := []string{
		"",
		"a:int\nnotanumber",
		"a:float\nnotafloat",
		"a:bool\nnotabool",
		"a:zigzag\n1",
		"a,a\n1,2",
		"a,b\nonly-one-cell-mismatch",
	}
	for _, src := range bad {
		if _, err := LoadCSV("t", strings.NewReader(src)); err == nil {
			t.Errorf("LoadCSV(%q) succeeded", src)
		}
	}
}

func TestLoadCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := os.WriteFile(path, []byte(sampleCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadCSVFile("student", path)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name != "student" || tbl.Cardinality() != 3 {
		t.Fatalf("table = %v", tbl)
	}
	if _, err := LoadCSVFile("x", filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
