package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// countingBody is a request body that counts the bytes it hands out.
type countingBody struct {
	r    io.Reader
	read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

// TestDeclaredLengthInProcess: in-process, nothing stops a handler at the
// declared Content-Length, so the prologue does. A body that ends before
// its declared length or runs past it is a 400 even when the bytes read
// would decode; a declared length over maxBody is a 413 before any byte is
// read; an undeclared length (chunked, or 0 with a body) reads up to the
// limit. /run and /batch share the prologue.
func TestDeclaredLengthInProcess(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for path, valid := range map[string]string{"/run": `{"benchmark":"treeadd"}`, "/batch": `{"runs":[{"benchmark":"treeadd"}]}`} {
		n := int64(len(valid))
		cases := []struct {
			name     string
			body     string
			declared int64
			want     int
		}{
			{"exact", valid, n, 200},
			{"shorter than declared", valid, n + 10, 400},
			{"longer than declared", valid + ` {"benchmark":"power"}`, n, 400},
			{"declared over maxBody", valid, maxBody + 1, 413},
			{"chunked", valid, -1, 200},
			{"chunked over maxBody", padBody(valid, maxBody+1), -1, 413},
			{"0 with a body", valid, 0, 200},
		}
		for _, c := range cases {
			body := &countingBody{r: strings.NewReader(c.body)}
			req := httptest.NewRequest(http.MethodPost, path, nil)
			req.Body, req.ContentLength = io.NopCloser(body), c.declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.want {
				t.Errorf("%s %s: %d %.100s, want %d", path, c.name, rec.Code, rec.Body, c.want)
			}
			if c.declared > maxBody && body.read != 0 {
				t.Errorf("%s %s: the handler read %d bytes of a body declared over the limit", path, c.name, body.read)
			}
		}
	}
}

// rawRequest writes head and body to a fresh connection to ts, half-closes
// it when cut (so a body shorter than declared ends), and returns the first
// response read back, the connection closed. An uncut connection stays
// open: net/http cancels a request whose client has hung up.
func rawRequest(t *testing.T, ts *httptest.Server, head, body string, cut bool) *http.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", ts.Listener.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, head+"\r\n"+body); err != nil {
		t.Fatal(err)
	}
	if cut {
		conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestDeclaredLengthOverSocket: the same matrix over a real socket, where
// net/http stops at the declared length itself. A body that ends early is a
// 400; a length declared over maxBody with Expect: 100-continue is a 413
// and no 100 Continue, because the handler never reads the body; chunked
// and declared-0 bodies answer as they always have.
func TestDeclaredLengthOverSocket(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	valid := `{"benchmark":"treeadd"}`
	head := func(hdr string) string {
		return "POST /run HTTP/1.1\r\nHost: oldend\r\nContent-Type: application/json\r\n" + hdr + "\r\n"
	}
	chunked := fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(valid), valid)
	cases := []struct {
		name, head, body string
		cut              bool
		want             int
	}{
		{"exact", head(fmt.Sprintf("Content-Length: %d", len(valid))), valid, false, 200},
		{"shorter than declared", head(fmt.Sprintf("Content-Length: %d", len(valid)+10)), valid, true, 400},
		{"declared over maxBody", head(fmt.Sprintf("Content-Length: %d\r\nExpect: 100-continue", 2<<20)), "", false, 413},
		{"chunked", head("Transfer-Encoding: chunked"), chunked, false, 200},
		{"0 with a body", head("Content-Length: 0"), valid, false, 400},
	}
	for _, c := range cases {
		if resp := rawRequest(t, ts, c.head, c.body, c.cut); resp.StatusCode != c.want {
			t.Errorf("%s: %s, want %d", c.name, resp.Status, c.want)
		}
	}
}

// TestHTTPServerTimeouts pins the listening server's limits: a read
// timeout over the whole request, an idle timeout longer than the
// router's transport keeps an idle connection, and no write timeout.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := HTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("Addr %q, Handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout %v, ReadTimeout %v: want both set, the whole request no shorter than its headers", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if idle := http.DefaultTransport.(*http.Transport).IdleConnTimeout; srv.IdleTimeout <= idle {
		t.Errorf("IdleTimeout %v, want longer than the default transport's %v", srv.IdleTimeout, idle)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v, want none: a run may last until its deadline", srv.WriteTimeout)
	}
}

// TestBodyReadTimeout408: a client that declares a body and stalls part way
// is cut by the server's ReadTimeout, and the prologue answers 408 with a
// message that names neither end of the socket. /run and /batch share the
// prologue, and so does the router.
func TestBodyReadTimeout408(t *testing.T) {
	exec := &instantExec{digests: []string{"d"}}
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.fn})
	defer s.Shutdown(context.Background())
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = 200 * time.Millisecond
	ts.Start()
	defer ts.Close()
	for _, path := range []string{"/run", "/batch"} {
		conn, err := net.DialTimeout("tcp", ts.Listener.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		head := "POST " + path + " HTTP/1.1\r\nHost: oldend\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
		if _, err := io.WriteString(conn, head+`{"benchmark"`); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Errorf("%s: %s %s, want 408", path, resp.Status, body)
		}
		for _, addr := range []string{conn.LocalAddr().String(), conn.RemoteAddr().String(), "tcp"} {
			if strings.Contains(string(body), addr) {
				t.Errorf("%s: body %s names %q", path, body, addr)
			}
		}
	}
}
