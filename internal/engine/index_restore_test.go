package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/storage"
)

// seedIndexed creates a table with a two-column secondary index, the
// shape the system schema gives ef_visual_attributes.
func seedIndexed(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE attrs (obj INT NOT NULL, comp INT NOT NULL, x FLOAT)")
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO attrs (obj, comp, x) VALUES (%d, %d, %d.5)", i, i%2, i))
	}
	mustExec(t, e, "CREATE INDEX attrs_obj ON attrs (obj, comp)")
}

// checkIndexRestored asserts that the catalog knows attrs_obj, that the
// planner still uses it, that re-declaring it with IF NOT EXISTS is a
// no-op and that a plain re-declaration is refused by the catalog.
func checkIndexRestored(t *testing.T, e *Engine, label string) {
	t.Helper()
	ix, ok := e.Catalog().Index("attrs_obj")
	if !ok {
		t.Fatalf("%s: catalog lost index attrs_obj", label)
	}
	if ix.Table != "attrs" || strings.Join(ix.Columns, ",") != "obj,comp" || ix.Unique {
		t.Fatalf("%s: restored index = %+v", label, ix)
	}
	wantLine(t, explainLines(t, e, "DELETE FROM attrs WHERE obj = 3 AND comp = 1"), "delete attrs: index(attrs_obj)")
	wantLine(t, explainLines(t, e, "UPDATE attrs SET x = 0 WHERE obj = 3 AND comp = 1"), "update attrs: index(attrs_obj)")
	mustExec(t, e, "CREATE INDEX IF NOT EXISTS attrs_obj ON attrs (obj, comp)")
	if _, err := e.Exec("CREATE INDEX attrs_obj ON attrs (obj, comp)"); err == nil || !strings.Contains(err.Error(), "catalog") {
		t.Fatalf("%s: plain CREATE INDEX on an existing name: err = %v, want the catalog's refusal", label, err)
	}
	res := mustExec(t, e, "SELECT x FROM attrs WHERE obj = 3 AND comp = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 3.5 {
		t.Fatalf("%s: indexed read = %v", label, res.Rows)
	}
}

func reopenEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestIndexRestoreOnReopen: a secondary index replayed from the WAL is
// back in the catalog, not only in storage.
func TestIndexRestoreOnReopen(t *testing.T) {
	dir := t.TempDir()
	e := reopenEngine(t, dir)
	seedIndexed(t, e)
	checkIndexRestored(t, e, "live")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkIndexRestored(t, reopenEngine(t, dir), "replayed")
}

// TestIndexRestoreAfterCheckpoint: the same through the snapshot file
// a checkpoint writes, with an empty WAL behind it.
func TestIndexRestoreAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := reopenEngine(t, dir)
	seedIndexed(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkIndexRestored(t, reopenEngine(t, dir), "checkpointed")
}

// TestIndexRestoreOnReplicaResync: a replica whose state is replaced by
// a shipped snapshot rebuilds its catalog with the snapshot's indexes.
func TestIndexRestoreOnReplicaResync(t *testing.T) {
	primary := newTestDB(t)
	seedIndexed(t, primary)
	data, _, err := primary.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica := newTestDB(t)
	mustExec(t, replica, "CREATE TABLE stale (id INT PRIMARY KEY)")
	mustExec(t, replica, "CREATE INDEX stale_id ON stale (id)")
	if err := replica.ApplyReplSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if _, ok := replica.Catalog().Index("stale_id"); ok {
		t.Fatal("resync kept an index the snapshot does not have")
	}
	checkIndexRestored(t, replica, "resynced")
}

// TestCreateIndexFailureLeavesNoCatalogEntry: when storage refuses the
// index (here: existing rows violate UNIQUE) the catalog forgets it too.
func TestCreateIndexFailureLeavesNoCatalogEntry(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE dup (k INT)")
	mustExec(t, e, "INSERT INTO dup (k) VALUES (1), (1)")
	if _, err := e.Exec("CREATE UNIQUE INDEX dup_k ON dup (k)"); err == nil {
		t.Fatal("unique index over duplicate keys accepted")
	}
	if _, ok := e.Catalog().Index("dup_k"); ok {
		t.Fatal("failed CREATE INDEX left a catalog entry")
	}
	mustExec(t, e, "CREATE INDEX dup_k ON dup (k)")
}
