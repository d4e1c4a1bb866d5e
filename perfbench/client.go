package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"paragraph/internal/serve"
)

// clientConns is the most client connections the benchmark holds against
// the servers at once: the core count of the 2-core machine it was sized on.
const clientConns = 2

// client is one HTTP client with its own bounded connection pool.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one request's outcome as the client saw it.
type reply struct {
	status  int
	body    []byte
	err     error
	latency time.Duration // send to last body byte
}

// post sends body as JSON and reads the whole answer. traceID, when set,
// goes out as the trace header so the server's spans can be collected.
func (c *client) post(base, path string, body any, traceID string) reply {
	buf, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Paragraph-Trace-Id", traceID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: out, err: err, latency: time.Since(start)}
}

// get fetches path and decodes JSON into v.
func (c *client) get(ctx context.Context, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// adviseOK sends one advise request and checks the answer's shape.
func (c *client) adviseOK(base string, req serve.AdviseRequest) error {
	r := c.post(base, "/v1/advise", req, "")
	if r.err != nil || r.status != http.StatusOK {
		return fmt.Errorf("advise %s: status %d: %v", req.Kernel, r.status, r.err)
	}
	resp, err := decodeAdvise(r.body)
	if err != nil {
		return err
	}
	return checkAdviseShape(req, resp)
}

func decodeAdvise(body []byte) (serve.AdviseResponse, error) {
	var resp serve.AdviseResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// series is one /metrics scrape: sample value by "name{labels}".
type series map[string]float64

var scrapeClient = newClient(1)

// scrape reads a peer's Prometheus exposition.
func scrape(ctx context.Context, base string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
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

// sum adds every sample of metric name whose labels contain match.
func (s series) sum(name, match string) float64 {
	var total float64
	for k, v := range s {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && strings.Contains(labels, match) {
			total += v
		}
	}
	return total
}

// scrapeAll sums the scrapes of every peer into one view of the tier.
func scrapeAll(ctx context.Context, urls []string) (series, error) {
	out := series{}
	for _, u := range urls {
		s, err := scrape(ctx, u)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			out[k] += v
		}
	}
	return out, nil
}
