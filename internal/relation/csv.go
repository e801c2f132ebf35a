package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"textjoin/internal/value"
)

// CSV loading: tables can be created from CSV files so the CLI and
// examples can run against user data. The first record is the header;
// each column may carry an optional type suffix after a colon —
// "year:int", "score:float", "active:bool" — defaulting to string.
// Empty cells load as NULL.

// LoadCSV reads a table from CSV.
func LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		colName := strings.TrimSpace(h)
		kind := value.KindString
		if idx := strings.LastIndexByte(colName, ':'); idx >= 0 {
			typeName := strings.ToLower(strings.TrimSpace(colName[idx+1:]))
			colName = strings.TrimSpace(colName[:idx])
			switch typeName {
			case "int", "integer":
				kind = value.KindInt
			case "float", "double", "real":
				kind = value.KindFloat
			case "bool", "boolean":
				kind = value.KindBool
			case "string", "varchar", "text", "":
				kind = value.KindString
			default:
				return nil, fmt.Errorf("relation: unknown CSV column type %q", typeName)
			}
		}
		cols[i] = Column{Name: strings.ToLower(colName), Kind: kind}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	t := NewTable(name, schema)
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		row := make(Tuple, len(cols))
		for i, cell := range record {
			v, err := parseCell(cols[i].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d, column %s: %w", line, cols[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
	}
	return t, nil
}

func parseCell(kind value.Kind, cell string) (value.Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return value.Null(), nil
	}
	switch kind {
	case value.KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("bad integer %q", cell)
		}
		return value.Int(i), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("bad float %q", cell)
		}
		return value.Float(f), nil
	case value.KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return value.Null(), fmt.Errorf("bad boolean %q", cell)
		}
		return value.Bool(b), nil
	default:
		return value.String(cell), nil
	}
}

// LoadCSVFile reads a table from a CSV file; the table name defaults to
// the file's base name without extension.
func LoadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCSV(name, f)
}
