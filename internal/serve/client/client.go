// Package client pushes trace records to a dayu serve instance's
// durable ingest API (POST /v1/ingest). It is the client half of the
// push path: the tracer (or the dayu push CLI) hands it raw trace
// bytes, and it delivers them with retry — capped exponential backoff
// with jitter, honoring 429 Retry-After hints — until the server
// acknowledges durability or the attempt budget runs out with a clear
// give-up error.
//
// Delivery is idempotent by construction: the server deduplicates on
// the content hash of the pushed bytes, so a retry of a request whose
// response was lost is acknowledged as a duplicate, never applied
// twice.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dayu/internal/trace"
)

// Options tunes a Client.
type Options struct {
	// HTTPClient issues the requests (default: http.Client with a 30s
	// timeout).
	HTTPClient *http.Client
	// MaxAttempts bounds delivery attempts per record before giving up
	// (default 8).
	MaxAttempts int
	// InitialBackoff is the delay before the first retry; it doubles
	// per attempt (default 100ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the retry delay (default 5s). A larger 429
	// Retry-After hint overrides the cap: the server knows better.
	MaxBackoff time.Duration
	// Rand drives the backoff jitter; nil uses a time-seeded source.
	// Tests pin it for determinism.
	Rand *rand.Rand
}

// Client pushes traces to one dayu serve base URL. It is safe for
// concurrent use.
type Client struct {
	base *url.URL
	http *http.Client
	opts Options

	mu  sync.Mutex // guards rnd
	rnd *rand.Rand
}

// New builds a client for a serve base URL like "http://host:8080".
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("push client: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("push client: server URL %q needs a scheme and host", baseURL)
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.InitialBackoff <= 0 {
		opts.InitialBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	rnd := opts.Rand
	if rnd == nil {
		rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return &Client{base: u, http: opts.HTTPClient, opts: opts, rnd: rnd}, nil
}

// PushResult is the server's acknowledgement for one record.
type PushResult struct {
	// Status is "accepted", "duplicate", or (for delta checkpoints the
	// server cannot fold) "resync".
	Status string `json:"status"`
	Task   string `json:"task"`
	Hash   string `json:"hash"`
	Seq    uint64 `json:"seq,omitempty"`
	// Attempts is how many deliveries this record took.
	Attempts int `json:"-"`
}

// Duplicate reports whether the server had already acknowledged an
// identical payload.
func (r *PushResult) Duplicate() bool { return r.Status == "duplicate" }

// NeedsResync reports that the server refused a delta checkpoint
// because its retained partial is not at the delta's base sequence
// (Seq carries the sequence it does have, or 0 for none). The record
// was NOT logged; the caller must re-push cumulative framing.
func (r *PushResult) NeedsResync() bool { return r.Status == "resync" }

// PushBytes delivers one complete trace byte stream (either
// serialization) to /v1/ingest, retrying transient failures. The
// returned result is the server's acknowledgement: once PushBytes
// returns nil error, the record is durably logged server-side.
func (c *Client) PushBytes(ctx context.Context, data []byte) (*PushResult, error) {
	return c.push(ctx, "/v1/ingest", data)
}

// PushTrace encodes and delivers one trace in the given format.
func (c *Client) PushTrace(ctx context.Context, t *trace.TaskTrace, f trace.Format) (*PushResult, error) {
	var buf bytes.Buffer
	if err := t.EncodeFormat(&buf, f); err != nil {
		return nil, err
	}
	return c.PushBytes(ctx, buf.Bytes())
}

// PushCheckpoint encodes and delivers one cumulative checkpoint
// record: the task's trace-so-far, flagged incremental with the given
// stream sequence number. The server retains at most one checkpoint
// per task (highest seq wins) until the task's final trace folds.
func (c *Client) PushCheckpoint(ctx context.Context, t *trace.TaskTrace, seq uint64) (*PushResult, error) {
	var buf bytes.Buffer
	if err := t.EncodeBinaryOpts(&buf, trace.BinaryOptions{Incremental: true, CheckpointSeq: seq}); err != nil {
		return nil, err
	}
	return c.PushBytes(ctx, buf.Bytes())
}

// PushManifestBytes delivers a manifest.json byte stream to
// /v1/ingest/manifest.
func (c *Client) PushManifestBytes(ctx context.Context, data []byte) (*PushResult, error) {
	return c.push(ctx, "/v1/ingest/manifest", data)
}

// DirSummary reports a PushDir run.
type DirSummary struct {
	Pushed     int // records delivered (accepted + duplicate)
	Accepted   int
	Duplicates int
	Manifest   bool // manifest.json was present and pushed
}

// PushDir pushes every trace file in dir and, when present, the
// manifest. Equivalent to PushTraces followed by pushing
// dir/manifest.json.
func (c *Client) PushDir(ctx context.Context, dir string) (DirSummary, error) {
	sum, err := c.PushTraces(ctx, dir)
	if err != nil {
		return sum, err
	}
	manifest := filepath.Join(dir, "manifest.json")
	if data, err := os.ReadFile(manifest); err == nil {
		if _, err := c.PushManifestBytes(ctx, data); err != nil {
			return sum, fmt.Errorf("push manifest.json: %w", err)
		}
		sum.Manifest = true
	} else if !os.IsNotExist(err) {
		return sum, fmt.Errorf("push: %w", err)
	}
	return sum, nil
}

// PushTraces pushes every trace file in dir (both serializations, raw
// bytes — the server's dedup keys stay aligned with the file hashes)
// but not the manifest. Files are pushed in sorted name order; the
// first undeliverable file aborts with its error.
func (c *Client) PushTraces(ctx context.Context, dir string) (DirSummary, error) {
	var sum DirSummary
	entries, err := os.ReadDir(dir)
	if err != nil {
		return sum, fmt.Errorf("push: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !trace.IsTraceFile(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return sum, fmt.Errorf("push: %w", err)
		}
		res, err := c.PushBytes(ctx, data)
		if err != nil {
			return sum, fmt.Errorf("push %s: %w", name, err)
		}
		sum.Pushed++
		if res.Duplicate() {
			sum.Duplicates++
		} else {
			sum.Accepted++
		}
	}
	return sum, nil
}

// push is the retry loop shared by every endpoint.
func (c *Client) push(ctx context.Context, path string, data []byte) (*PushResult, error) {
	endpoint := c.base.JoinPath(path).String()
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		res, retryAfter, err := c.attempt(ctx, endpoint, data)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		if pe := (*permanentError)(nil); errorAs(err, &pe) {
			// Wrap pe itself, not pe.err: IsPermanent must keep working
			// on the returned error (same message either way).
			return nil, fmt.Errorf("push: %s: %w", endpoint, pe)
		}
		lastErr = err
		if attempt == c.opts.MaxAttempts {
			break
		}
		delay := c.sleepFor(attempt, retryAfter)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("push: %s: %w (last error: %v)", endpoint, ctx.Err(), lastErr)
		case <-time.After(delay):
		}
	}
	return nil, fmt.Errorf("push: %s: giving up after %d attempts: %w", endpoint, c.opts.MaxAttempts, lastErr)
}

// attempt issues one POST. It classifies the outcome: nil error on
// 200; *permanentError on 4xx responses that retrying cannot cure;
// a plain error (retryable) on 429, 5xx and transport failures, with
// any Retry-After hint.
func (c *Client) attempt(ctx context.Context, endpoint string, data []byte) (*PushResult, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, 0, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("request: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, 0, fmt.Errorf("read response: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var res PushResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, 0, fmt.Errorf("bad acknowledgement: %w", err)
		}
		return &res, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("server backpressure: %s", strings.TrimSpace(string(body)))
	case resp.StatusCode == http.StatusConflict:
		// A delta NACK is a protocol outcome, not a failure: the server
		// is telling us which base it has so we can resync. Anything
		// else on 409 is permanent.
		var res PushResult
		if err := json.Unmarshal(body, &res); err == nil && res.Status == "resync" {
			return &res, 0, nil
		}
		return nil, 0, &permanentError{fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusRequestTimeout:
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		return nil, 0, &permanentError{fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
}

// sleepFor returns the delay before the retry following the given
// attempt number: capped exponential backoff with ±20% jitter, then a
// server Retry-After hint applied as a floor AFTER the jitter. The
// ordering matters: a hint larger than MaxBackoff must win outright
// (the server knows its own backlog), and jitter must never pull the
// sleep below what the server asked for. The result is always at
// least one millisecond — never zero or negative, whatever the
// combination of cap, hint and jitter.
func (c *Client) sleepFor(attempt int, retryAfter time.Duration) time.Duration {
	delay := c.opts.InitialBackoff
	for i := 1; i < attempt && delay < c.opts.MaxBackoff; i++ {
		delay *= 2
	}
	if delay > c.opts.MaxBackoff {
		delay = c.opts.MaxBackoff
	}
	c.mu.Lock()
	jitter := time.Duration((c.rnd.Float64()*0.4 - 0.2) * float64(delay))
	c.mu.Unlock()
	delay += jitter
	if delay < retryAfter {
		delay = retryAfter
	}
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds or an HTTP-date. Negative delays and past dates clamp
// to 0 (retry immediately) rather than poisoning the backoff floor.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// IsPermanent reports whether a push error was a permanent server
// rejection (validation failure, oversize body, disabled endpoint)
// rather than a transient delivery failure that exhausted its retries.
func IsPermanent(err error) bool {
	pe := (*permanentError)(nil)
	return errorAs(err, &pe)
}

// permanentError marks outcomes no retry can change (validation
// rejections, oversize bodies, disabled endpoints).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// errorAs is errors.As narrowed to *permanentError (kept local to
// avoid shadowing confusion in the retry loop).
func errorAs(err error, target **permanentError) bool {
	for err != nil {
		if pe, ok := err.(*permanentError); ok {
			*target = pe
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
