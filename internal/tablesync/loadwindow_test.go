package tablesync

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/types"
)

// windowConn wraps the embedded database and, right after the mirror's
// initial-load SELECT returns, commits one statement and waits until its
// notification row exists. The commit therefore lands exactly between
// the snapshot and any cursor read that follows it.
type windowConn struct {
	*database.DB
	t    *testing.T
	stmt string
	once sync.Once
}

func (c *windowConn) Query(sql string, args ...types.Value) (*engine.Result, error) {
	res, err := c.DB.Query(sql, args...)
	if err == nil && strings.HasPrefix(sql, "SELECT *") {
		c.once.Do(c.commitInWindow)
	}
	return res, err
}

func (c *windowConn) commitInWindow() {
	maxSeq := func() int64 {
		v, err := c.DB.QueryValue("SELECT COALESCE(MAX(seq_no), 0) FROM " + database.TableNotification + " WHERE tbl = 'nodes'")
		if err != nil {
			c.t.Error(err)
			return 0
		}
		return v.Int()
	}
	before := maxSeq()
	if _, err := c.DB.Exec(c.stmt); err != nil {
		c.t.Error(err)
		return
	}
	for deadline := time.Now().Add(3 * time.Second); maxSeq() == before; {
		if time.Now().After(deadline) {
			c.t.Error("notification row for the window commit never appeared")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInitialLoadWindow: a commit that lands while a mirror is loading
// — after its snapshot — must still reach the mirror. The mirror used to
// read the notification cursor after the snapshot and acknowledge it, so
// such a commit was acknowledged without ever being loaded and the
// mirror diverged from the source for good.
func TestInitialLoadWindow(t *testing.T) {
	for _, c := range []struct {
		name, stmt string
		want       func(m *Mirror) bool
	}{
		{"Insert", "INSERT INTO nodes (id, x, y, label) VALUES (2, 0.0, 0.0, 'late')", func(m *Mirror) bool { return m.Len() == 2 }},
		{"Update", "UPDATE nodes SET label = 'late' WHERE id = 1", func(m *Mirror) bool {
			for _, r := range m.Snapshot() {
				if r.Values[m.ColIndex("label")].AsString() == "late" {
					return true
				}
			}
			return false
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, _ := setup(t)
			if _, err := db.Exec("INSERT INTO nodes (id, x, y, label) VALUES (1, 0.0, 0.0, 'early')"); err != nil {
				t.Fatal(err)
			}
			m, err := NewMirror(&windowConn{DB: db, t: t, stmt: c.stmt}, "viz", "nodes")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			refreshUntil(t, m, func() bool { return c.want(m) })
		})
	}
}
