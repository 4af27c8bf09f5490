package lineserver

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// lateListener hands out its one connection only once Close has been
// called on it: Accept returns exactly while Server.Close is running.
type lateListener struct {
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	c := l.conn
	if c == nil {
		return nil, net.ErrClosed
	}
	l.conn = nil
	return c, nil
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestCloseRefusesLateAccept: a connection Accept returns while Close
// runs must be closed, not registered after Close tore the registered
// ones down — otherwise its handler blocks in Scan and Close's drain
// waits until the client goes away.
func TestCloseRefusesLateAccept(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	s := New("test", 1<<10,
		func(c *Conn, line []byte) bool { return true },
		func(w *bufio.Writer, msg string) {})
	s.serve(&lateListener{conn: server, closed: make(chan struct{})})

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		client.Close() // release the stuck handler so Close can return
		<-done
		t.Fatal("Close hung on a connection accepted while it ran")
	}
	client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late connection left open: read err = %v, want EOF", err)
	}
}

// TestListenAfterClose: a closed server serves again on a fresh Listen,
// the kill/restart pattern on a stable address.
func TestListenAfterClose(t *testing.T) {
	s := New("test", 1<<10,
		func(c *Conn, line []byte) bool {
			c.W.Write(line)
			c.W.WriteByte('\n')
			return true
		},
		func(w *bufio.Writer, msg string) {})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(conn, "echo\n"); err != nil {
		t.Fatal(err)
	}
	if got, err := bufio.NewReader(conn).ReadString('\n'); err != nil || got != "echo\n" {
		t.Fatalf("got %q, %v; want echo", got, err)
	}
}
