package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"qla/internal/jobs"
)

// conn is one closed-loop client: a single keep-alive connection, so
// every request waits for the previous reply.
type conn struct {
	base string
	c    *http.Client
	tr   *http.Transport
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply is one complete HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (c *conn) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

func (c *conn) post(path string, body []byte) (reply, error) {
	return c.do(http.MethodPost, path, body)
}
func (c *conn) get(path string) (reply, error) { return c.do(http.MethodGet, path, nil) }

// submitSweep posts a sweep and returns its job ID.
func (c *conn) submitSweep(body []byte) (string, error) {
	r, err := c.post("/v1/sweeps", body)
	if err != nil {
		return "", err
	}
	if r.status != http.StatusAccepted && r.status != http.StatusOK {
		return "", fmt.Errorf("POST /v1/sweeps: status %d: %s", r.status, r.body)
	}
	var sb struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(r.body, &sb); err != nil {
		return "", fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	return sb.JobID, nil
}

// waitDone follows GET /v1/jobs/{id}/events until the done event and
// returns the job's final snapshot.
func (c *conn) waitDone(id string) (jobs.Snapshot, error) {
	resp, err := c.c.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Snapshot{}, fmt.Errorf("job %s events: status %d", id[:12], resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var snap jobs.Snapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				return jobs.Snapshot{}, fmt.Errorf("job %s done event: %w", id[:12], err)
			}
			// Drain the rest so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return snap, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Snapshot{}, err
	}
	return jobs.Snapshot{}, fmt.Errorf("job %s: event stream ended without done", id[:12])
}
