package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the closed loop's client count: two keep-alive connections,
// each sending its next request only after the previous response body
// has been read in full.
const conns = 2

// conn is one keep-alive HTTP/1.1 connection that writes prebuilt
// requests and reads responses with a minimal parser into a reused
// buffer, so the client spends little CPU of the two cores it shares
// with the servers.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*conn, error) {
	k := &conn{addr: addr}
	return k, k.connect()
}

func (k *conn) connect() error {
	c, err := net.Dial("tcp", k.addr)
	if err != nil {
		return err
	}
	k.c, k.br = c, bufio.NewReaderSize(c, 16<<10)
	return nil
}

// do sends one POST and returns the status and the full body (valid
// until the next call). Any error leaves the connection closed; the
// next call redials.
func (k *conn) do(route string, body []byte) (int, []byte, error) {
	if k.c == nil {
		if err := k.connect(); err != nil {
			return 0, nil, err
		}
	}
	k.buf = append(k.buf[:0], "POST "...)
	k.buf = append(k.buf, route...)
	k.buf = append(k.buf, " HTTP/1.1\r\nHost: "...)
	k.buf = append(k.buf, k.addr...)
	k.buf = append(k.buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	k.buf = strconv.AppendInt(k.buf, int64(len(body)), 10)
	k.buf = append(k.buf, "\r\n\r\n"...)
	k.buf = append(k.buf, body...)
	if _, err := k.c.Write(k.buf); err != nil {
		k.close()
		return 0, nil, err
	}
	status, closing, err := k.readResponse()
	if err != nil {
		k.close()
		return 0, nil, err
	}
	if closing {
		k.close()
	}
	return status, k.buf, nil
}

// readResponse reads one response into k.buf: the status line, the
// headers (only Content-Length, Transfer-Encoding and Connection
// matter), and a Content-Length or chunked body.
func (k *conn) readResponse() (status int, closing bool, err error) {
	line, err := k.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := k.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		h := bytes.TrimSpace(line)
		if len(h) == 0 {
			break
		}
		name, value, _ := bytes.Cut(h, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	k.buf = k.buf[:0]
	switch {
	case chunked:
		for {
			line, err := k.br.ReadSlice('\n')
			if err != nil {
				return 0, false, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if err != nil {
				return 0, false, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				// No trailers are sent; the terminating CRLF follows.
				_, err = k.br.Discard(2)
				return status, closing, err
			}
			if err := k.readN(int(size)); err != nil {
				return 0, false, err
			}
			if _, err := k.br.Discard(2); err != nil {
				return 0, false, err
			}
		}
	case length >= 0:
		return status, closing, k.readN(length)
	}
	return 0, false, fmt.Errorf("response without a length")
}

// readN appends exactly n body bytes to k.buf.
func (k *conn) readN(n int) error {
	off := len(k.buf)
	k.buf = append(k.buf, make([]byte, n)...)
	_, err := io.ReadFull(k.br, k.buf[off:])
	return err
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// call is one completed request.
type call struct {
	index  int
	start  time.Duration // since the phase began
	lat    time.Duration // request write to last body byte
	status int           // 0 on a transport error
	off    int           // body position in the phase's arena
	n      int
}

// phase is the record of one load pass: every call plus the response
// bodies, packed into one arena per connection.
type phase struct {
	calls   []call
	arenas  [][]byte
	arenaOf []int // calls[k]'s body lives in arenas[arenaOf[k]]
	began   time.Time
	elapsed time.Duration
}

func (p *phase) body(k int) []byte {
	c := p.calls[k]
	return p.arenas[p.arenaOf[k]][c.off : c.off+c.n]
}

// drive runs the closed loop on the connections: stream indices are
// claimed from next in order, and the pass ends when index limit is
// reached (limit > 0) or when dur has elapsed (dur > 0).
func drive(cs []*conn, route string, wl *workload, next *atomic.Int64, limit int64, dur time.Duration) *phase {
	type worker struct {
		calls []call
		arena []byte
	}
	ws := make([]worker, len(cs))
	start := time.Now()
	var wg sync.WaitGroup
	for k := range cs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := &ws[k]
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				body := wl.body(int(i))
				t0 := time.Now()
				status, resp, err := cs[k].do(route, body)
				lat := time.Since(t0)
				c := call{index: int(i), start: t0.Sub(start), lat: lat, status: status, off: len(w.arena), n: len(resp)}
				if err != nil {
					c.status, c.n = 0, 0
				}
				w.arena = append(w.arena, resp...)
				w.calls = append(w.calls, c)
			}
		}(k)
	}
	wg.Wait()
	p := &phase{began: start, elapsed: time.Since(start)}
	for k, w := range ws {
		p.arenas = append(p.arenas, w.arena)
		for _, c := range w.calls {
			p.calls = append(p.calls, c)
			p.arenaOf = append(p.arenaOf, k)
		}
	}
	return p
}

// openConns dials the closed loop's connections to one instance.
func openConns(url string) ([]*conn, error) {
	addr := strings.TrimPrefix(url, "http://")
	cs := make([]*conn, 0, conns)
	for k := 0; k < conns; k++ {
		c, err := dial(addr)
		if err != nil {
			closeConns(cs)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}
