package notify

import (
	"net"
	"sync"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/engine"
)

// dispatchedSignal returns a channel that receives once for every
// dispatch batch touching table. Registered after the notifier, the
// observer runs after the notifier's onBatch for the same batch, so a
// receive means the notifier has finished with that commit.
func dispatchedSignal(db *database.DB, table string) <-chan struct{} {
	ch := make(chan struct{}, 16)
	db.ObserveBatch(func(evs []engine.ChangeEvent) {
		for _, ev := range evs {
			if ev.Table == table {
				ch <- struct{}{}
				return
			}
		}
	})
	return ch
}

// holdConn blocks its first Write — the notifier's REPLY — after the
// bytes are on the wire, until hold is closed. The client sees REPLY
// and Connect returns while the notifier is still inside the
// handshake.
type holdConn struct {
	net.Conn
	once sync.Once
	hold chan struct{}
}

func (c *holdConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { <-c.hold })
	return n, err
}

// TestRegistrationWindowReplyHeld holds the notifier between sending
// REPLY and finishing the handshake, and commits in that window. The
// connection must already be published, so the commit's NOTIFY is
// queued and follows the REPLY once the handshake completes.
func TestRegistrationWindowReplyHeld(t *testing.T) {
	db := database.MustOpenMemory()
	hold := make(chan struct{})
	n, err := NewNotifier(db, WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &holdConn{Conn: c, hold: hold}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		db.Close()
	})
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}
	dispatched := dispatchedSignal(db, "authors")
	cl, err := Connect(db, "viz", "authors")
	if err != nil {
		close(hold)
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := db.Exec("INSERT INTO authors VALUES (1, 'a')"); err != nil {
		close(hold)
		t.Fatal(err)
	}
	<-dispatched
	close(hold)
	if m := waitMsg(t, cl); m.Table != "authors" || m.Op != "INSERT" {
		t.Fatalf("%+v", m)
	}
}

// TestRegistrationWindowCatchUp commits after the registration row is
// written but before the notifier dials back, so the commit's NOTIFY
// has no connection to go to. Connect's catch-up read must deliver it.
func TestRegistrationWindowCatchUp(t *testing.T) {
	db := database.MustOpenMemory()
	var dispatched <-chan struct{}
	var once sync.Once
	n, err := NewNotifier(db, WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
		var err error
		once.Do(func() {
			if _, err = db.Exec("INSERT INTO authors VALUES (1, 'a')"); err == nil {
				<-dispatched
			}
		})
		if err != nil {
			return nil, err
		}
		return net.DialTimeout("tcp", addr, timeout)
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		db.Close()
	})
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}
	dispatched = dispatchedSignal(db, "authors")
	cl, err := Connect(db, "viz", "authors")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := waitMsg(t, cl)
	if m.Table != "authors" || m.Op != "INSERT" {
		t.Fatalf("%+v", m)
	}
	if pending, _, err := cl.PendingNotifications(); err != nil || len(pending) != 1 || pending[0].Seq != m.Seq {
		t.Fatalf("catch-up NOTIFY %+v does not match pending %+v (err %v)", m, pending, err)
	}
}
