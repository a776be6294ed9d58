package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nestdiff/internal/service"
)

// Client is the load generator's HTTP side. Every request goes through one
// transport capped at nproc connections per host, and every call is
// recorded as a span.
type Client struct {
	hc    *http.Client
	spans *Spans
}

func newClient(spans *Spans) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     time.Minute,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, spans: spans}
}

func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Reply is one finished HTTP call.
type Reply struct {
	Code   int
	Body   []byte
	Header http.Header
	Start  time.Time
	End    time.Time
}

func (r Reply) OK() bool               { return r.Code/100 == 2 }
func (r Reply) Elapsed() time.Duration { return r.End.Sub(r.Start) }
func (r Reply) decode(v any) error     { return json.Unmarshal(r.Body, v) }
func (r Reply) err(what string) error {
	return fmt.Errorf("%s: HTTP %d: %s", what, r.Code, strings.TrimSpace(string(r.Body)))
}

// do sends one request and records it as a span named name.
func (c *Client) do(name, method, url string, body []byte) (Reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return Reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := Reply{Start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, fmt.Errorf("%s %s: %w", method, url, err)
	}
	r.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.End = time.Now()
	r.Code, r.Header = resp.StatusCode, resp.Header
	c.spans.add(name, r.Start, r.End)
	if err != nil {
		return r, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return r, nil
}

func (c *Client) get(name, url string) (Reply, error) { return c.do(name, http.MethodGet, url, nil) }

func (c *Client) post(name, url string, v any) (Reply, error) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			return Reply{}, err
		}
	}
	return c.do(name, http.MethodPost, url, body)
}

// status fetches one job's snapshot.
func (c *Client) status(base, id string) (service.Snapshot, Reply, error) {
	var snap service.Snapshot
	r, err := c.get("http.status", base+"/jobs/"+id)
	if err != nil {
		return snap, r, err
	}
	if !r.OK() {
		return snap, r, r.err("status " + id)
	}
	return snap, r, r.decode(&snap)
}

// scrape reads a /metrics page into name{labels} → value.
func (c *Client) scrape(url string) (map[string]float64, error) {
	r, err := c.get("http.metrics", url+"/metrics")
	if err != nil {
		return nil, err
	}
	if !r.OK() {
		return nil, r.err("metrics")
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.Body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeWorkers sums each series over every worker's /metrics page.
func (c *Client) scrapeWorkers(f *Fleet) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, w := range f.Workers {
		m, err := c.scrape(w)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// Spans keeps the benchmark's own spans in memory: one per HTTP call and
// per direct call into a layer's public function.
type Spans struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

func newSpans() *Spans { return &Spans{by: map[string][]time.Duration{}} }

func (s *Spans) add(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.by[name] = append(s.by[name], end.Sub(start))
	s.mu.Unlock()
}

// time runs fn as a span named name.
func (s *Spans) time(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	s.add(name, t0, t1)
	return t1.Sub(t0), err
}

// print writes one line per span name: count, median and p99 in ms.
func (s *Spans) print(w io.Writer) {
	s.mu.Lock()
	names := make([]string, 0, len(s.by))
	for n := range s.by {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	fmt.Fprintln(w, "spans (count, p50 ms, p99 ms):")
	for _, n := range names {
		d := ms(s.durations(n))
		fmt.Fprintf(w, "  %-28s %7d %10.4f %10.4f\n", n, len(d), quantile(d, 0.5), quantile(d, 0.99))
	}
}

// durations returns a copy of the recorded durations of name.
func (s *Spans) durations(name string) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.by[name]...)
}
