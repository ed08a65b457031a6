// Package client is the JSON-over-HTTP client for the adasimd campaign
// service. cmd/adasimctl is a thin wrapper around it, and the end-to-end
// tests drive the real server through the same code paths, so the CLI's
// wire behaviour is exactly what the tests pin.
//
// The task methods (SubmitTask, Task, TaskResults, WaitTask,
// CancelTask) speak the /v1/tasks API and work for every registered
// kind.
package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"adasim/internal/fleet"
	"adasim/internal/service"
)

// Retry backoff shape: exponential from base to cap, with each sleep
// jittered to 50–100% of its nominal value so a burst of rejected
// clients does not re-converge on the server in lockstep.
const (
	retryBaseBackoff = 100 * time.Millisecond
	retryMaxBackoff  = 2 * time.Second
)

// Client talks to one adasimd base URL.
type Client struct {
	// Base is the service base URL, without a trailing slash.
	Base string
	// Poll is the status-polling interval of WaitTask; zero means 200ms.
	Poll time.Duration
	// Retries is how many times a request rejected with 429 (queue full)
	// or 503 (draining, journal unavailable) is retried; zero means 3,
	// negative disables retrying. Only those two statuses are retried:
	// they mean the server definitively did not act on the request, so a
	// retry can never duplicate work. Transport errors are NOT retried —
	// the request may have been applied.
	Retries int
	// HTTP is the underlying client; the zero value works.
	HTTP http.Client
}

// New builds a client, normalizing the base URL.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) poll() time.Duration {
	if c.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return c.Poll
}

func (c *Client) retries() int {
	if c.Retries == 0 {
		return 3
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

// do issues the request built by build, retrying 429/503 rejections with
// jittered exponential backoff (honoring a Retry-After hint when the
// server sends one). build constructs a fresh request per attempt, so a
// consumed body never leaks across attempts.
func (c *Client) do(build func() (*http.Request, error)) (*http.Response, error) {
	backoff := retryBaseBackoff
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return nil, err
		}
		if !retryableStatus(resp.StatusCode) || attempt >= c.retries() {
			return resp, nil
		}
		wait := backoff
		if ra := retryAfter(resp); ra > 0 {
			wait = ra
		}
		// Drain and close so the keep-alive connection is reusable.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1)))
		backoff *= 2
		if backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
	}
}

func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses a delay-seconds Retry-After header; zero when absent
// or unparseable (HTTP-date values are rare here and fall back to the
// client's own backoff).
func retryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// PostJSON posts body as JSON and decodes the response into out (which
// may be nil). Non-2xx responses become errors carrying the server's
// error body; 429/503 rejections are retried (see Retries).
func (c *Client) PostJSON(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.do(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// GetJSON fetches path and decodes the response into out.
func (c *Client) GetJSON(path string, out any) error {
	resp, err := c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.Base+path, nil)
	})
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// GetRaw fetches path and returns the raw response body, preserving the
// server's byte-exact encoding.
func (c *Client) GetRaw(path string) ([]byte, error) {
	resp, err := c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.Base+path, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, statusError(resp.Status, b)
	}
	return b, nil
}

// Delete issues a DELETE and decodes the response into out (which may
// be nil).
func (c *Client) Delete(path string, out any) error {
	resp, err := c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodDelete, c.Base+path, nil)
	})
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// statusError turns a non-2xx response into an error, extracting the
// server's {"error": ...} body when present.
func statusError(status string, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", status, e.Error)
	}
	return fmt.Errorf("%s: %s", status, strings.TrimSpace(string(body)))
}

// SubmitTask submits a spec to the unified task API. kind is the route
// segment ("jobs", "explorations", "reports"); priority, when
// non-empty, overrides the kind's default scheduling class.
func (c *Client) SubmitTask(kind string, spec any, priority service.PriorityClass) (service.TaskView, error) {
	path := "/v1/tasks/" + kind
	if priority != "" {
		path += "?" + url.Values{"priority": {string(priority)}}.Encode()
	}
	var view service.TaskView
	err := c.PostJSON(path, spec, &view)
	return view, err
}

// Task fetches a task's status snapshot by ID, any kind.
func (c *Client) Task(id string) (service.TaskView, error) {
	var view service.TaskView
	err := c.GetJSON("/v1/tasks/"+id, &view)
	return view, err
}

// TaskResults fetches a finished task's results in the kind's wire
// format, byte-exact.
func (c *Client) TaskResults(id string) ([]byte, error) {
	return c.GetRaw("/v1/tasks/" + id + "/results")
}

// TaskEvents fetches a task's lifecycle timeline so far (the ordered
// submitted → queued → started → progress → terminal event records).
func (c *Client) TaskEvents(id string) ([]service.TimelineEvent, error) {
	var resp service.TaskEventsResponse
	err := c.GetJSON("/v1/tasks/"+id+"/events", &resp)
	return resp.Events, err
}

// WatchTask follows a task's live SSE event stream, calling fn for
// each timeline event (the already-recorded ones first, then live
// ones), and returns when the server closes the stream — which it does
// right after the terminal event. Unlike the polling WaitTask it
// holds one connection open for the task's whole life. The stream is
// not retried: events could be missed while reconnecting, and the
// caller can fall back to TaskEvents/WaitTask.
func (c *Client) WatchTask(id string, fn func(service.TimelineEvent)) error {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/tasks/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		return statusError(resp.Status, b)
	}
	return readSSE(resp.Body, fn)
}

// readSSE parses an SSE stream, decoding each frame's data lines as a
// TimelineEvent. Comment lines and fields other than data (the server
// also sends the event name) are skipped, per the SSE contract.
func readSSE(r io.Reader, fn func(service.TimelineEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data []byte
	flush := func() error {
		if len(data) == 0 {
			return nil
		}
		var ev service.TimelineEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("client: bad event payload: %w", err)
		}
		data = data[:0]
		fn(ev)
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line dispatches the pending frame
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n') // multi-line data joins with \n
			}
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// Workers fetches the coordinator's remote-worker fleet view (the
// GET /v1/workers summary and per-worker rows).
func (c *Client) Workers() (fleet.WorkersResponse, error) {
	var resp fleet.WorkersResponse
	err := c.GetJSON("/v1/workers", &resp)
	return resp, err
}

// CancelTask requests cooperative cancellation of a task.
func (c *Client) CancelTask(id string) (service.TaskView, error) {
	var view service.TaskView
	err := c.Delete("/v1/tasks/"+id, &view)
	return view, err
}

// WaitTask polls the task until it reaches a terminal state (done,
// failed, or canceled).
func (c *Client) WaitTask(id string) (service.TaskView, error) {
	for {
		view, err := c.Task(id)
		if err != nil {
			return view, err
		}
		switch view.Status {
		case service.StatusDone, service.StatusFailed, service.StatusCanceled:
			return view, nil
		}
		time.Sleep(c.poll())
	}
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return statusError(resp.Status, b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}
