package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleTable(id string) *Table {
	t := &Table{ID: id, Title: "T " + id, Note: "n", Columns: []string{"K", "A"}}
	t.AddRow("row", "42.7%")
	t.SetValue("flips", "A", 0.427)
	return t
}

func TestWriteLoadTablesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := map[string]*Table{
		"fig5":  sampleTable("fig5"),
		"fig10": sampleTable("fig10"),
	}
	if err := WriteTables(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestWriteTablesRejectsMissingID(t *testing.T) {
	err := WriteTables(t.TempDir(), map[string]*Table{"x": {Title: "no id"}})
	if err == nil {
		t.Fatal("table without ID recorded")
	}
}

func TestLoadTablesFailures(t *testing.T) {
	// Empty directory: a -from dir with nothing to verdict is an error,
	// not a vacuous pass.
	if _, err := LoadTables(t.TempDir()); err == nil {
		t.Error("empty results directory accepted")
	}

	// Two files claiming the same experiment must fail loudly.
	dir := t.TempDir()
	if err := WriteTables(dir, map[string]*Table{"fig5": sampleTable("fig5")}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "fig5.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "copy.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTables(dir); err == nil || !strings.Contains(err.Error(), "fig5") {
		t.Errorf("duplicate experiment recording not rejected: %v", err)
	}

	// A table with no ID cannot be keyed.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "anon.json"),
		[]byte(`{"title":"t","columns":["K"],"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTables(dir2); err == nil {
		t.Error("ID-less table accepted")
	}

	// A row wider than the header would index past Render's column
	// widths; the loader must reject it and name the file.
	wide := filepath.Join(t.TempDir(), "wide.json")
	if err := os.WriteFile(wide,
		[]byte(`{"id":"fig5","title":"t","columns":["K"],"rows":[[{"raw":"a"},{"raw":"b"}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(wide); err == nil || !strings.Contains(err.Error(), wide) {
		t.Errorf("row wider than columns not rejected with the file named: %v", err)
	}
}

// FuzzTableJSON feeds arbitrary bytes to the table decoder. Any input must
// either fail to decode or yield a table that Render and CSV format
// without panicking.
func FuzzTableJSON(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "table_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"title":"t","columns":["K"],"rows":[[{"raw":"a"},{"raw":"b"}]]}`))
	f.Add([]byte(`{"title":"t","columns":[],"rows":[[]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		if err := json.Unmarshal(data, &tab); err != nil {
			return
		}
		_ = tab.Render()
		_ = tab.CSV()
	})
}
