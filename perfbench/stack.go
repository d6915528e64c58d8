package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"fmore/internal/admission"
	"fmore/internal/analytics"
	"fmore/internal/exchange"
	"fmore/internal/promtext"
)

// capacityBidsPerS is the measured bid-storm capacity of the reference box
// (2 vCPUs): the median bids_per_s of ten runs. The admission ceiling sits
// at four times it, so a shed means the load changed far beyond any bound,
// not noise.
const capacityBidsPerS = 17000

// exchangeOptions is cmd/fmore-exchange's wiring with default flags:
// adaptive commits, the 8 MiB snapshot trigger, and no admission unless
// the workload runs it in its production shape (a global ceiling plus the
// in-flight gate, burst = rate x the default 250ms window).
func exchangeOptions(wl *workload) exchange.Options {
	opts := exchange.Options{Commit: exchange.CommitAdaptive, OnWALFailure: exchange.WALDegrade}
	if wl.admission {
		opts.Admission = newAdmission()
	}
	return opts
}

func newAdmission() *admission.Controller {
	const rate = 4 * capacityBidsPerS
	return admission.NewController(admission.Config{
		GlobalRate:  rate,
		GlobalBurst: rate / 4,
		MaxInflight: 64,
	})
}

// stack is the production stack of cmd/fmore-exchange served on loopback:
// exchange.Open on a data dir, an analytics aggregator on the firehose,
// and analytics.NewHandler(ex, agg, exchange.NewHandler(ex)).
type stack struct {
	ex     *exchange.Exchange
	detach func()
	srv    *http.Server
	cancel context.CancelFunc
	served chan error
	url    string
}

// openStack opens (or re-opens) the exchange in dir and serves it. A
// non-nil tracer wraps the handler and the aggregator's sink.
func openStack(dir string, wl *workload, tr *tracer) (*stack, error) {
	ex, err := exchange.Open(dir, exchangeOptions(wl))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	return serveStack(ex, tr)
}

func serveStack(ex *exchange.Exchange, tr *tracer) (*stack, error) {
	agg := analytics.New(analytics.Options{})
	var sink exchange.Sink = agg
	var h http.Handler = analytics.NewHandler(ex, agg, exchange.NewHandler(ex))
	if tr != nil {
		sink = tr.sink(agg)
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ex.Close() //nolint:errcheck // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{
		ex:     ex,
		detach: ex.Firehose().Attach(sink),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return ctx },
		},
		cancel: cancel,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stopServing ends the HTTP side: open event streams are released through
// the base context, then the server drains and its goroutine is waited for.
func (s *stack) stopServing() {
	if s.srv == nil {
		return
	}
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a stream that outlives the drain is cut by Close below
	s.srv.Close()           //nolint:errcheck // idempotent after Shutdown
	<-s.served
	s.srv = nil
}

// close stops serving, detaches the aggregator and closes the exchange,
// returning the WAL's first sticky error.
func (s *stack) close() error {
	s.stopServing()
	if s.detach != nil {
		s.detach()
		s.detach = nil
	}
	return s.ex.Close()
}

// checkParity is the stack-parity guard: the assembled stack must answer
// /v1/healthz and /v1/jobs/{id}/stats with 200 and serve a Prometheus page
// that validates, or the benchmark would be measuring another program.
func (s *stack) checkParity(jobID string) error {
	for _, path := range []string{"/v1/healthz", "/v1/jobs/" + url.PathEscape(jobID) + "/stats"} {
		if _, err := s.get(path); err != nil {
			return fmt.Errorf("stack parity: %w", err)
		}
	}
	page, err := s.get("/v1/metrics/prometheus")
	if err != nil {
		return fmt.Errorf("stack parity: %w", err)
	}
	m, err := promtext.Parse(bytes.NewReader(page))
	if err != nil {
		return fmt.Errorf("stack parity: prometheus page: %w", err)
	}
	if _, err := m.Value("fmore_exchange_jobs_active"); err != nil {
		return fmt.Errorf("stack parity: prometheus page: %w", err)
	}
	return nil
}

// get fetches one path and returns its body; anything but 200 is an error.
func (s *stack) get(path string) ([]byte, error) {
	resp, err := http.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// outcomePages fetches every retained /outcomes page of a job verbatim.
func (s *stack) outcomePages(jobID string) ([][]byte, error) {
	var pages [][]byte
	cursor := ""
	for {
		path := "/v1/jobs/" + url.PathEscape(jobID) + "/outcomes"
		if cursor != "" {
			path += "?cursor=" + cursor
		}
		page, err := s.get(path)
		if err != nil {
			return nil, err
		}
		pages = append(pages, page)
		var p struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(page, &p); err != nil {
			return nil, fmt.Errorf("decoding outcomes page: %w", err)
		}
		if p.NextCursor == "" {
			return pages, nil
		}
		if _, err := strconv.Atoi(p.NextCursor); err != nil {
			return nil, fmt.Errorf("bad next_cursor %q", p.NextCursor)
		}
		cursor = p.NextCursor
	}
}
