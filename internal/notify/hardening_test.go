package notify

import (
	"bufio"
	"net"
	"testing"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/types"
)

// A registration pointing at a listener that accepts but never speaks
// HELLO (a "blackholed" client) must not stall statement execution or
// delivery to healthy clients, and must eventually be dropped.
func TestBlackholedRegistrationDoesNotBlock(t *testing.T) {
	db := database.MustOpenMemory()
	defer db.Close()
	n, err := NewNotifier(db, WithDialTimeout(300*time.Millisecond), WithWriteTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}

	// Listener that accepts and then goes silent: the dial-back's
	// handshake read must hit its deadline instead of hanging.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold open, never write
		}
	}()
	port := hole.Addr().(*net.TCPAddr).Port

	// Hostile registration: the INSERT itself must return immediately —
	// the dial-back runs off the observer path.
	begin := time.Now()
	id, _ := db.NextID(database.TableConnectedUser)
	_, err = db.Exec("INSERT INTO "+database.TableConnectedUser+
		" (id, username, host, port, tbl, last_seq) VALUES (?, 'hole', '127.0.0.1', ?, 'authors', 0)",
		types.NewInt(id), types.NewInt(int64(port)))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 200*time.Millisecond {
		t.Fatalf("registration INSERT blocked %v on the dial-back", d)
	}

	// A healthy client connecting while the blackholed dial is pending
	// must handshake and receive NOTIFY promptly.
	cl, err := Connect(db, "viz", "authors")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	begin = time.Now()
	if _, err := db.Exec("INSERT INTO authors VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 200*time.Millisecond {
		t.Fatalf("INSERT stalled %v behind a dead client", d)
	}
	waitMsg(t, cl)

	// The blackholed registration is garbage-collected once the
	// handshake deadline fires.
	deadline := time.Now().Add(3 * time.Second)
	for {
		cnt, err := db.QueryInt("SELECT COUNT(*) FROM "+database.TableConnectedUser+" WHERE id = ?", types.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blackholed registration never removed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A client that completes the handshake and then stops reading must not
// slow down onChange: sends to it go through a bounded queue, so a burst
// of changes completes quickly and healthy clients keep receiving.
func TestStalledReaderDoesNotBlockDelivery(t *testing.T) {
	db := database.MustOpenMemory()
	defer db.Close()
	n, err := NewNotifier(db, WithWriteTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING)"); err != nil {
		t.Fatal(err)
	}

	// Hand-rolled client that handshakes correctly, then never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	handshaken := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		w := bufio.NewWriter(c)
		w.WriteString(Message{Verb: MsgHello}.Format() + "\n")
		w.Flush()
		r := bufio.NewReader(c)
		r.ReadString('\n') // REPLY
		close(handshaken)
		select {} // stall forever; conn stays open, never read again
	}()
	id, _ := db.NextID(database.TableConnectedUser)
	port := ln.Addr().(*net.TCPAddr).Port
	if _, err := db.Exec("INSERT INTO "+database.TableConnectedUser+
		" (id, username, host, port, tbl, last_seq) VALUES (?, 'stall', '127.0.0.1', ?, 'authors', 0)",
		types.NewInt(id), types.NewInt(int64(port))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handshaken:
	case <-time.After(3 * time.Second):
		t.Fatal("stalled client never handshaken")
	}

	cl, err := Connect(db, "viz", "authors")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Burst well past the send-queue capacity. Each Exec must return
	// without waiting on the stalled socket.
	const burst = sendQueueLen * 2
	begin := time.Now()
	for i := 0; i < burst; i++ {
		if _, err := db.Exec("INSERT INTO authors VALUES (?, 'n')", types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(begin); d > 5*time.Second {
		t.Fatalf("burst of %d inserts took %v behind a stalled reader", burst, d)
	}

	// The healthy client still sees notifications flowing.
	waitMsg(t, cl)

	// And nothing was lost for anyone: the pull path (Notification
	// table) has every change regardless of push drops. When the burst
	// outlasts the write timeout, the stalled client's drop commits its
	// registration DELETE concurrently and may be the active dispatcher
	// as the burst ends; the burst's last notification rows then land
	// just after the final Exec returns. Wait for them, then require the
	// exact count.
	deadline := time.Now().Add(3 * time.Second)
	for {
		msgs, _, err := cl.PendingNotifications()
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == burst {
			break
		}
		if len(msgs) > burst || time.Now().After(deadline) {
			t.Fatalf("notification table has %d rows, want %d", len(msgs), burst)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
