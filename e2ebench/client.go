package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// requestTimeout bounds one request; a request that runs longer counts as
// failed.
const requestTimeout = 30 * time.Second

// conn is one client connection: a transport limited to a single TCP
// connection, so the benchmark holds exactly as many connections as it has
// clients.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{c: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends a JSON body and returns the status and the whole reply.
func (c *conn) post(ctx context.Context, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// prepare registers a prepared batch and checks that the server's handle is
// the canonical fingerprint the oracle computed.
func (c *conn) prepare(ctx context.Context, b *genBatch) error {
	body, err := json.Marshal(server.PrepareRequest{Statements: b.stmt})
	if err != nil {
		return err
	}
	status, data, err := c.post(ctx, "/prepare", body, map[string]string{"X-Tenant": tenant})
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("prepare: HTTP %d: %s", status, strings.TrimSpace(string(data)))
	}
	var pr server.PrepareResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if pr.Handle != b.handle {
		return fmt.Errorf("prepare: server handle %s, oracle fingerprint %s", pr.Handle, b.handle)
	}
	return nil
}

// sample is one query request as the client saw it.
type sample struct {
	req    request
	client int
	seq    int
	start  time.Time
	lat    time.Duration
	first  time.Duration // stream only: time to the first snapshot event
	status int
	err    string
	resp   *server.QueryResponse
}

// query runs one /query or /query/stream request.
func (c *conn) query(ctx context.Context, r request, stream bool) sample {
	s := sample{req: r, start: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	path := "/query"
	if stream {
		path = "/query/stream"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(r.b.body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.c.Do(hreq)
	if err != nil {
		s.err = err.Error()
		s.lat = time.Since(s.start)
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		s.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		s.lat = time.Since(s.start)
		return s
	}
	if !stream {
		var qr server.QueryResponse
		err := json.NewDecoder(resp.Body).Decode(&qr)
		s.lat = time.Since(s.start)
		if err != nil {
			s.err = "decoding reply: " + err.Error()
			return s
		}
		s.resp = &qr
		return s
	}
	s.resp, s.first, err = readStream(resp.Body, s.start)
	s.lat = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// readStream consumes an SSE reply: it times the first snapshot event and
// returns the decoded "done" payload.
func readStream(body io.Reader, start time.Time) (*server.QueryResponse, time.Duration, error) {
	br := bufio.NewReader(body)
	var event string
	var first time.Duration
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, first, fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if first == 0 && (event == "progress" || event == "done") {
				first = time.Since(start)
			}
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "done":
				var qr server.QueryResponse
				if err := json.Unmarshal([]byte(data), &qr); err != nil {
					return nil, first, fmt.Errorf("decoding done event: %w", err)
				}
				return &qr, first, nil
			case "error":
				return nil, first, fmt.Errorf("error event: %s", data)
			}
		}
	}
}

// ingestSample is one /ingest request of the open-loop writer.
type ingestSample struct {
	idx     int
	due     time.Time
	late    time.Duration // send time minus due time
	lat     time.Duration // completion minus due time
	status  int
	err     string
	version uint64
}

// ingest posts one JSON batch.
func (c *conn) ingest(ctx context.Context, idx int, tuples [][]int, due time.Time) ingestSample {
	s := ingestSample{idx: idx, due: due, late: time.Since(due)}
	req := server.IngestRequest{Tuples: make([]server.IngestTuple, len(tuples))}
	for i, t := range tuples {
		req.Tuples[i] = server.IngestTuple{Coords: t}
	}
	body, err := json.Marshal(req)
	if err != nil {
		s.err = err.Error()
		return s
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	status, data, err := c.post(ctx, "/ingest", body, nil)
	s.lat = time.Since(due)
	s.status = status
	if err != nil {
		s.err = err.Error()
		return s
	}
	if status != http.StatusOK {
		s.err = fmt.Sprintf("HTTP %d: %s", status, strings.TrimSpace(string(data)))
		return s
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		s.err = "decoding reply: " + err.Error()
		return s
	}
	if ir.Applied != len(tuples) {
		s.err = fmt.Sprintf("applied %d of %d tuples", ir.Applied, len(tuples))
		return s
	}
	s.version = ir.Version
	return s
}
