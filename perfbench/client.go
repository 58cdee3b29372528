package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"marketscope/internal/market"
	"marketscope/internal/query"
)

// request is one read: a scan or aggregate body and the route it goes to.
type request struct {
	path string
	body []byte
}

func scanReq(q query.Query) request { return mustRequest(market.ScanPath, q) }

func aggReq(a query.Aggregate) request { return mustRequest(market.AggregatePath, a) }

func mustRequest(path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return request{path: path, body: body}
}

// eval answers r through the Go API of src — the oracle side of every
// answer check.
func (r request) eval(src query.Source) (answer, error) {
	var res *query.Result
	var err error
	switch r.path {
	case market.ScanPath:
		var q query.Query
		if q, err = query.ParseQuery(bytes.NewReader(r.body)); err == nil {
			res, err = src.Scan(q)
		}
	case market.AggregatePath:
		agg, ok := src.(query.AggregateSource)
		if !ok {
			return answer{}, fmt.Errorf("source %T does not aggregate", src)
		}
		var a query.Aggregate
		if a, err = query.ParseAggregate(bytes.NewReader(r.body)); err == nil {
			res, err = agg.Aggregate(a)
		}
	default:
		err = fmt.Errorf("unknown route %q", r.path)
	}
	if err != nil {
		return answer{}, err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return answer{}, err
	}
	a, _, ok := parseAnswer(body)
	if !ok {
		return answer{}, errors.New("oracle result has no meta")
	}
	return a, nil
}

// answer identifies what a response says, leaving out how it was computed:
// a digest of the fields and rows plus the matched total. Timing and plan
// details in the response meta differ between engines and are not part of
// the answer.
type answer struct {
	rows  [sha256.Size]byte
	total int64
}

var (
	metaKey  = []byte(`,"meta":{`)
	totalKey = []byte(`"total_matched":`)
	timeKey  = []byte(`"query_time_us":`)
)

// parseAnswer splits a result body (query.Result JSON: fields, rows, meta)
// into its answer and the engine time it reports.
func parseAnswer(body []byte) (a answer, queryTimeUs int64, ok bool) {
	i := bytes.LastIndex(body, metaKey)
	if i < 0 {
		return answer{}, 0, false
	}
	meta := body[i:]
	total, okT := jsonInt(meta, totalKey)
	qt, okQ := jsonInt(meta, timeKey)
	if !okT || !okQ {
		return answer{}, 0, false
	}
	return answer{rows: sha256.Sum256(body[:i]), total: total}, qt, true
}

// jsonInt reads the integer following key in b.
func jsonInt(b, key []byte) (int64, bool) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, false
	}
	rest := b[i+len(key):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return v, err == nil
}

// client is one closed-loop HTTP client with its own single connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
			},
		},
	}
}

// reply is one completed request as the client saw it.
type reply struct {
	status  int
	hit     bool
	body    []byte
	latency time.Duration
}

// post sends body to path and reads the whole reply (transparently
// decompressing a gzipped one, as any HTTP client would).
func (c *client) post(path string, body []byte, header map[string]string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "HIT", body: data, latency: time.Since(start)}
	return r, err
}

func (c *client) close() { c.http.CloseIdleConnections() }

// server serves a handler on a loopback port until stop.
type server struct {
	srv  *http.Server
	base string
	done sync.WaitGroup
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String()}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.srv.Close()
	s.done.Wait()
}

// read is one completed read of a closed loop.
type read struct {
	key     int // which request, in the caller's numbering
	status  int // HTTP status, 0 when the request failed outright
	latency time.Duration
	hit, ok bool // ok: HTTP 200 with a well-formed result
	ans     answer
	queryUs int64
}

// readLoop is one closed-loop client: it sends next's request, waits for the
// reply, and repeats until done reports true.
func readLoop(c *client, done func() bool, next func() (int, request)) []read {
	var out []read
	for !done() {
		key, r := next()
		rep, err := c.post(r.path, r.body, nil)
		rd := read{key: key, status: rep.status, latency: rep.latency, hit: rep.hit}
		if err == nil && rep.status == http.StatusOK {
			rd.ans, rd.queryUs, rd.ok = parseAnswer(rep.body)
		}
		out = append(out, rd)
	}
	return out
}
