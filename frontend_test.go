package rhythm

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"rhythm/internal/httpx"
)

// repeatReader yields the same byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestReadRequestIntoCapsHeaders: one 16 MiB header line must fail with
// errHeaderTooLarge having buffered at most one reader fragment past the
// cap, instead of growing the buffer to the whole line.
func TestReadRequestIntoCapsHeaders(t *testing.T) {
	src := io.MultiReader(
		strings.NewReader("GET /account_summary.php HTTP/1.1\r\nX-Big: "),
		io.LimitReader(repeatReader('a'), 16<<20),
		strings.NewReader("\r\n\r\n"),
	)
	r := bufio.NewReader(src)
	buf, err := readRequestInto(r, nil)
	if !errors.Is(err, errHeaderTooLarge) {
		t.Fatalf("err = %v, want errHeaderTooLarge", err)
	}
	if limit := maxHeaderBytes + r.Size(); len(buf) > limit {
		t.Fatalf("buffered %d bytes, want <= %d", len(buf), limit)
	}

	// A header block just under the cap still reads.
	under := "GET /x HTTP/1.1\r\nX-Pad: " + strings.Repeat("b", maxHeaderBytes-64) + "\r\n\r\n"
	got, err := readRequestInto(bufio.NewReader(strings.NewReader(under)), nil)
	if err != nil || string(got) != under {
		t.Fatalf("under-cap request: err %v, read %d of %d bytes", err, len(got), len(under))
	}
}

// TestOversizeHeaderAnswers431: both serving modes answer an oversized
// header block with 431, close the connection, and count the rejection
// as a parse error; the server keeps serving other connections.
func TestOversizeHeaderAnswers431(t *testing.T) {
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()
	dev := startCohortServer(t, CohortOptions{FormationTimeout: time.Millisecond})

	oversize := "GET /account_summary.php HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 2*maxHeaderBytes) + "\r\n\r\n"
	for _, tc := range []struct {
		mode        string
		addr        net.Addr
		parseErrors func() uint64
	}{
		{"host", host.Addr(), func() uint64 { return host.statsDocument().Errors }},
		{"cohort", dev.Addr(), func() uint64 { return dev.Stats().ParseErrors }},
	} {
		conn := dialT(t, tc.addr)
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		go io.WriteString(conn, oversize)
		resp, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("%s: reading the rejection: %v (got %.80q)", tc.mode, err, resp)
		}
		if !bytes.HasPrefix(resp, []byte("HTTP/1.1 431 ")) {
			t.Fatalf("%s: oversized header answered %.120q, want 431", tc.mode, resp)
		}
		if n := tc.parseErrors(); n != 1 {
			t.Fatalf("%s: parse errors = %d after one 431, want 1", tc.mode, n)
		}
		if body := scrape(t, tc.addr, StatsPathV1); !strings.HasPrefix(body, "HTTP/1.1 200 ") {
			t.Fatalf("%s: server stopped serving after a 431: %.100q", tc.mode, body)
		}
	}
}

// TestHostDrainIsGraceful: host mode drains like cohort mode — after a
// keep-alive exchange, Drain closes the idle connection and returns once
// its handler has exited.
func TestHostDrainIsGraceful(t *testing.T) {
	srv, err := New("127.0.0.1:0", WithHostExecution())
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", StatsPathV1)
	if resp := readRawResponse(t, r); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
		t.Fatalf("stats before drain: %.100q", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection after Drain: read err %v, want EOF", err)
	}
}

// FuzzReadRequestInto: whatever bytes arrive, the reader returns a
// prefix of them, never buffers more than the header cap plus one
// reader fragment before the body, and hands the parser nothing it
// panics on.
func FuzzReadRequestInto(f *testing.F) {
	f.Add([]byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=00000000000000aa\r\n\r\n"))
	f.Add([]byte("POST /login.php HTTP/1.1\r\nContent-Length: 23\r\n\r\nuserid=1001&passwd=abcd"))
	f.Add([]byte("POST /x HTTP/1.1\r\ncontent-length:  99999999999\r\n\r\n"))
	f.Add([]byte("GET /x HTTP/1.1\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(data), 16)
		buf, err := readRequestInto(r, nil)
		if len(buf) > len(data) || !bytes.Equal(buf, data[:len(buf)]) {
			t.Fatalf("buffer is not a prefix of the input: %q vs %q", buf, data)
		}
		if errors.Is(err, errHeaderTooLarge) && len(buf) > maxHeaderBytes+r.Size() {
			t.Fatalf("buffered %d header bytes past the cap", len(buf))
		}
		if err == nil {
			var req httpx.Request
			httpx.ParseInto(buf, &req)
		}
	})
}
