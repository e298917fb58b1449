package notify

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/driver"
	"ediflow/internal/types"
)

// Client is the visualization-process side of the protocol: it owns the
// listening socket the DBMS dials back to, performs the HELLO/REPLY
// handshake, and surfaces NOTIFY messages on C.
type Client struct {
	db     driver.Conn
	Table  string
	UserID int64

	ln   net.Listener
	C    chan Message
	done chan struct{}

	mu      sync.Mutex
	conn    net.Conn
	writer  *bufio.Writer
	lastSeq int64
	closed  bool
}

// Connect creates the client-side listener, registers the quadruplet in
// ConnectedUser (protocol steps 1–4) and waits for the DBMS to complete
// the handshake. db may be the embedded database or a network client —
// either way the registration INSERT reaches the DBMS, whose notifier
// dials back. Connect assumes DBMS and client share a host (loopback);
// use ConnectHost when the DBMS runs on another machine.
func Connect(db driver.Conn, user, table string) (*Client, error) {
	return connect(db, user, table, "127.0.0.1:0", "127.0.0.1")
}

// ConnectHost is Connect for a remote DBMS: the client listens on every
// interface and registers advertiseHost, the address the server machine
// can dial back to (the ip of the paper's (user, table, ip, port)
// quadruplet).
func ConnectHost(db driver.Conn, user, table, advertiseHost string) (*Client, error) {
	return connect(db, user, table, ":0", advertiseHost)
}

func connect(db driver.Conn, user, table, listenAddr, advertiseHost string) (*Client, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		db:    db,
		Table: table,
		ln:    ln,
		C:     make(chan Message, 1024),
		done:  make(chan struct{}),
	}
	ready := make(chan error, 1)
	go cl.acceptLoop(ready)

	addr := ln.Addr().(*net.TCPAddr)
	// Notifications already recorded for the table predate the
	// registration: history the catch-up below must not ring for.
	floor, _, err := latestNotification(db, table, 0)
	if err != nil {
		ln.Close()
		return nil, err
	}
	id, err := db.NextID(database.TableConnectedUser)
	if err != nil {
		ln.Close()
		return nil, err
	}
	cl.UserID = id
	_, err = db.Exec(
		"INSERT INTO "+database.TableConnectedUser+" (id, username, host, port, tbl, last_seq) VALUES (?, ?, ?, ?, ?, 0)",
		types.NewInt(id), types.NewString(user),
		types.NewString(advertiseHost), types.NewInt(int64(addr.Port)),
		types.NewString(table),
	)
	if err != nil {
		ln.Close()
		return nil, err
	}
	select {
	case err := <-ready:
		if err != nil {
			ln.Close()
			return nil, err
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		return nil, fmt.Errorf("notify: DBMS did not dial back within 5s")
	}
	// Catch up once past the registration: a commit that landed before
	// the notifier published this connection got no NOTIFY line, but its
	// Notification row is already recorded. One doorbell for the newest
	// such row covers them all — consumers re-read past last_seq.
	seq, op, err := latestNotification(db, table, floor)
	if err != nil {
		cl.Close()
		return nil, err
	}
	if seq > floor {
		select {
		case cl.C <- Message{Verb: MsgNotify, Table: table, Seq: seq, Op: op}:
		default: // full of newer doorbells already
		}
	}
	return cl, nil
}

// latestNotification returns the seq_no and op of the newest
// Notification row for table past seq, or seq itself when there is none.
func latestNotification(db driver.Conn, table string, seq int64) (int64, string, error) {
	res, err := db.Query(
		"SELECT seq_no, op FROM "+database.TableNotification+
			" WHERE tbl = ? AND seq_no > ? ORDER BY seq_no DESC LIMIT 1",
		types.NewString(table), types.NewInt(seq))
	if err != nil {
		return seq, "", fmt.Errorf("notify: read latest notification: %w", err)
	}
	if len(res.Rows) == 0 {
		return seq, "", nil
	}
	return res.Rows[0][0].Int(), res.Rows[0][1].Str(), nil
}

func (cl *Client) acceptLoop(ready chan<- error) {
	conn, err := cl.ln.Accept()
	if err != nil {
		ready <- err
		return
	}
	// Handshake: client sends HELLO, expects REPLY (steps 6–7).
	w := bufio.NewWriter(conn)
	if _, err := w.WriteString(Message{Verb: MsgHello}.Format() + "\n"); err != nil {
		ready <- err
		conn.Close()
		return
	}
	if err := w.Flush(); err != nil {
		ready <- err
		conn.Close()
		return
	}
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		ready <- err
		conn.Close()
		return
	}
	msg, err := ParseMessage(line)
	if err != nil || msg.Verb != MsgReply {
		ready <- fmt.Errorf("notify: expected REPLY, got %q", line)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	cl.mu.Lock()
	cl.conn = conn
	cl.writer = w
	cl.mu.Unlock()
	ready <- nil

	for {
		line, err := r.ReadString('\n')
		if err != nil {
			close(cl.done)
			return
		}
		msg, err := ParseMessage(line)
		if err != nil {
			continue
		}
		if msg.Verb == MsgNotify {
			select {
			case cl.C <- msg:
			default:
				// Slow consumer: drop; the mirror re-reads from last_seq
				// anyway, so no change is lost.
			}
		}
	}
}

// Ack records that the client has consumed notifications up to seq,
// enabling Notification-table purging.
func (cl *Client) Ack(seq int64) error {
	cl.mu.Lock()
	if seq <= cl.lastSeq {
		cl.mu.Unlock()
		return nil
	}
	cl.lastSeq = seq
	cl.mu.Unlock()
	_, err := cl.db.Exec("UPDATE "+database.TableConnectedUser+" SET last_seq = ? WHERE id = ?",
		types.NewInt(seq), types.NewInt(cl.UserID))
	return err
}

// LastSeq returns the highest acknowledged sequence number.
func (cl *Client) LastSeq() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.lastSeq
}

// PendingNotifications reads the Notification rows for this client's table
// newer than its last acknowledged seq (protocol step 9: "reads them from
// the Notification table, starting from its last read seq_no value").
func (cl *Client) PendingNotifications() ([]Message, [][]int64, error) {
	res, err := cl.db.Query(
		"SELECT seq_no, op, tids FROM "+database.TableNotification+
			" WHERE tbl = ? AND seq_no > ? ORDER BY seq_no",
		types.NewString(cl.Table), types.NewInt(cl.LastSeq()))
	if err != nil {
		return nil, nil, err
	}
	msgs := make([]Message, 0, len(res.Rows))
	tidLists := make([][]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		tids, err := DecodeTIDs(r[2].Str())
		if err != nil {
			return nil, nil, err
		}
		msgs = append(msgs, Message{Verb: MsgNotify, Table: cl.Table, Seq: r[0].Int(), Op: r[1].Str()})
		tidLists = append(tidLists, tids)
	}
	return msgs, tidLists, nil
}

// Close sends DISCONNECT (protocol step 10) and tears the listener down.
// The DBMS removes the ConnectedUser entry on receipt.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	conn := cl.conn
	w := cl.writer
	cl.mu.Unlock()
	if conn != nil && w != nil {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		w.WriteString(Message{Verb: MsgDisconnect}.Format() + "\n")
		w.Flush()
		conn.Close()
	}
	return cl.ln.Close()
}

// CloseAbrupt severs the socket without the DISCONNECT handshake,
// simulating a crashed visualization process. The DBMS notices the EOF
// (or its next failed write) and drops the registration itself.
func (cl *Client) CloseAbrupt() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	conn := cl.conn
	cl.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return cl.ln.Close()
}

// Done is closed when the server side hangs up.
func (cl *Client) Done() <-chan struct{} { return cl.done }
