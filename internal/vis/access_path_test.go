package vis

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// bigComponent returns a database without a notifier (so only the vis
// statements touch the engine) and a component holding n objects, next
// to a sibling component holding the same n objects.
func bigComponent(t *testing.T, n int) (*database.DB, *Component) {
	t.Helper()
	db := database.MustOpenMemory()
	t.Cleanup(func() { db.Close() })
	v, err := NewVisualization(db, "big")
	if err != nil {
		t.Fatal(err)
	}
	sibling, _ := v.AddComponent("sibling", "scatter")
	c, err := v.AddComponent("main", "node-link")
	if err != nil {
		t.Fatal(err)
	}
	attrs := make(map[int64]Attr, n)
	for i := 0; i < n; i++ {
		attrs[int64(i)] = Attr{X: float64(i), Y: float64(-i), Label: fmt.Sprint(i)}
	}
	for _, comp := range []*Component{sibling, c} {
		if err := comp.InsertAttributes(attrs); err != nil {
			t.Fatal(err)
		}
	}
	return db, c
}

func TestVisStatementsPlanIndexPoint(t *testing.T) {
	db, _ := bigComponent(t, 5000)
	args := func(n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewInt(1)
		}
		return out
	}
	for _, tc := range []struct {
		sql, want string
	}{
		{sqlSetAttributes, "update ef_visual_attributes: index(ef_visual_attributes_obj)"},
		{sqlSetPositions, "update ef_visual_attributes: index(ef_visual_attributes_obj)"},
		{sqlSelect, "update ef_visual_attributes: index(ef_visual_attributes_obj)"},
		{sqlDeleteAttributes, "delete ef_visual_attributes: index(ef_visual_attributes_obj)"},
	} {
		res, err := db.Exec("EXPLAIN "+tc.sql, args(strings.Count(tc.sql, "?"))...)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", tc.sql, err)
		}
		if len(res.Rows) == 0 || res.Rows[0][0].Str() != tc.want {
			t.Errorf("EXPLAIN %s = %v, want %q", tc.sql, res.Rows, tc.want)
		}
	}
}

// TestVisWritesScanOnlyTouchedObjects counts rows, not time: every
// per-object write examines at most the objects it names, however many
// the component (and its sibling) hold.
func TestVisWritesScanOnlyTouchedObjects(t *testing.T) {
	db, c := bigComponent(t, 5000)
	scanned := db.Metrics().Counter("engine.rows_scanned")
	touched := []int64{3, 99, 1234, 4999}
	attrs := map[int64]Attr{}
	pos := map[int64][2]float64{}
	for _, id := range touched {
		attrs[id] = Attr{X: 1, Y: 2, Color: "red"}
		pos[id] = [2]float64{5, 6}
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SetAttributes", func() error { return c.SetAttributes(attrs) }},
		{"SetPositions", func() error { return c.SetPositions(pos) }},
		{"Select", func() error {
			for _, id := range touched {
				if err := c.Select(id, true); err != nil {
					return err
				}
			}
			return nil
		}},
		{"DeleteAttributes", func() error { return c.DeleteAttributes(touched) }},
	} {
		before := scanned.Value()
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := scanned.Value() - before; got > int64(len(touched)) {
			t.Errorf("%s over %d objects scanned %d rows", tc.name, len(touched), got)
		}
	}
	got, err := c.Attributes()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000-len(touched) {
		t.Fatalf("component holds %d objects after deleting %d of 5000", len(got), len(touched))
	}
}

// TestAsOfReadSeesDeletedAttributes: index entries outlive a DELETE
// until vacuum, so a snapshot pinned before DeleteAttributes still finds
// the object through the index.
func TestAsOfReadSeesDeletedAttributes(t *testing.T) {
	db, c := bigComponent(t, 5000)
	seq := db.Store().SnapshotSeq()
	if err := c.DeleteAttributes([]int64{42}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT label FROM " + database.TableVisualAttributes + " WHERE obj_id = ? AND comp_id = ?"
	res, err := db.Query(q, types.NewInt(42), types.NewInt(c.ID))
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("latest read after delete: %v, %v", res, err)
	}
	res, err = db.Query(q+" AS OF ?", types.NewInt(42), types.NewInt(c.ID), types.NewInt(seq))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "42" {
		t.Fatalf("AS OF read before the delete = %v, want object 42", res.Rows)
	}
}

// TestVisAttributesIndexBackfilledOnOpen: a database written before the
// system schema declared the index gets it built at its next open, and
// the vis calls behave as they did on the unindexed table.
func TestVisAttributesIndexBackfilledOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := engine.New(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacy.Exec(`CREATE TABLE ` + database.TableVisualAttributes + ` (
		obj_id INT NOT NULL, comp_id INT NOT NULL, x FLOAT, y FLOAT, width FLOAT,
		height FLOAT, color STRING, label STRING, selected BOOL)`); err != nil {
		t.Fatal(err)
	}
	model := map[int64]map[int64]Attr{1: {}, 2: {}}
	for comp, objs := range model {
		for obj := int64(0); obj < 200; obj++ {
			a := Attr{X: float64(obj), Y: float64(comp), Label: fmt.Sprint(obj)}
			objs[obj] = a
			if _, err := legacy.Exec("INSERT INTO "+database.TableVisualAttributes+
				" (obj_id, comp_id, x, y, width, height, color, label, selected) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
				attrArgs(obj, comp, a)...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := legacy.Catalog().Index(database.IndexVisualAttributes); ok {
		t.Fatal("legacy store already has the index")
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := database.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.Catalog().Index(database.IndexVisualAttributes); !ok {
		t.Fatal("open did not backfill the visual-attributes index")
	}
	c := &Component{ID: 2, db: db}
	check := func(step string) {
		t.Helper()
		got, err := c.Attributes()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, model[2]) {
			t.Fatalf("%s: attributes diverge from the model (%d vs %d objects)", step, len(got), len(model[2]))
		}
	}
	check("backfilled")
	set := map[int64]Attr{5: {X: 9, Color: "blue"}, 500: {Y: 1, Label: "new"}}
	if err := c.SetAttributes(set); err != nil {
		t.Fatal(err)
	}
	for id, a := range set {
		model[2][id] = a
	}
	check("SetAttributes")
	if err := c.SetPositions(map[int64][2]float64{6: {7, 8}}); err != nil {
		t.Fatal(err)
	}
	a := model[2][6]
	a.X, a.Y = 7, 8
	model[2][6] = a
	check("SetPositions")
	if err := c.Select(7, true); err != nil {
		t.Fatal(err)
	}
	a = model[2][7]
	a.Selected = true
	model[2][7] = a
	check("Select")
	if sel, err := c.SelectedObjects(); err != nil || !reflect.DeepEqual(sel, []int64{7}) {
		t.Fatalf("SelectedObjects = %v, %v", sel, err)
	}
	if err := c.DeleteAttributes([]int64{8, 9, 1000}); err != nil {
		t.Fatal(err)
	}
	delete(model[2], 8)
	delete(model[2], 9)
	check("DeleteAttributes")
	other, err := (&Component{ID: 1, db: db}).Attributes()
	if err != nil || !reflect.DeepEqual(other, model[1]) {
		t.Fatalf("sibling component changed: %d objects, %v", len(other), err)
	}
}
