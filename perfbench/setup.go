package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/server"
	"repro/internal/tools"
)

// nproc is the load the workloads are sized for: at most this many
// connections, workers or search goroutines at once.
const nproc = 2

// verdict is what a serving request must come back with.
type verdict struct {
	Verdict string
	UB      int // behavior code when flagged, else 0
}

func verdictOf(r tools.Report) verdict {
	v := verdict{Verdict: r.Verdict.String()}
	if r.UB != nil && r.UB.Behavior != nil {
		v.UB = r.UB.Behavior.Code
	}
	return v
}

// env is everything set-up builds: the seeded inputs, the expected
// results they are checked against, and a running in-process undefd.
type env struct {
	in    *inputs
	tools []tools.Tool // the four tools of Figure 2, paper column order

	expect []verdict // per inputs.bases entry, computed through driver + tools
	// compiles records which base programs get through the frontend (a
	// few own-suite static cases are rejected by it, by design).
	compiles map[string]bool

	explore []*sema.Program // per inputs.explore entry
	oracle  []string        // per inputs.explore entry: ExploreDFS outcome keys

	// hotCache holds the hot set compiled, for the traced replay's
	// in-process driver lookups.
	hotCache *driver.Cache
	hotBody  [][]byte // marshalled /v1/analyze bodies of the hot set

	// hotd serves serve-hot; serve-unique starts a daemon per slice.
	hotd *daemon

	nextUnique int // next serve-unique request index
}

// daemon is undefd's handler served in-process on a loopback port with
// the default engine, nproc executors and no artifact tier.
type daemon struct {
	http      *http.Server
	transport *http.Transport
	client    *http.Client
	url       string
	served    chan error
}

// setup builds the inputs for every workload, computes their expected
// results, starts the server and warms its hot set.
func setup(seed int64) (*env, error) {
	e := &env{in: newInputs(seed), tools: tools.All(tools.Config{}), compiles: map[string]bool{}}
	kcc := tools.KCC(tools.Config{})
	ctx := context.Background()

	// Expected serving verdicts, through the driver and the kcc tool.
	cache := driver.NewCache()
	for _, b := range e.in.bases {
		prog, err := cache.Compile(b.Source, b.Name+".c", driver.Options{})
		e.compiles[b.Name+".c"] = err == nil
		if err != nil {
			// What the server answers for a translation unit the
			// frontend rejects.
			e.expect = append(e.expect, verdictOf(tools.ReportFromError(err)))
			continue
		}
		e.expect = append(e.expect, verdictOf(kcc.AnalyzeProgram(ctx, prog, b.Name+".c")))
	}
	e.hotCache = driver.NewCache()
	for _, h := range e.in.hot {
		if _, err := e.hotCache.Compile(h.source, h.file, driver.Options{}); (err == nil) != e.compiles[h.file] {
			return nil, fmt.Errorf("set-up: compile hot %s: %v", h.file, err)
		}
		body, err := json.Marshal(&server.AnalyzeRequest{Source: h.source, File: h.file})
		if err != nil {
			return nil, err
		}
		e.hotBody = append(e.hotBody, body)
	}

	// The explore oracle: the sequential DFS over every order, once.
	for _, p := range e.in.explore {
		prog, err := driver.Compile(p.source, p.name+".c", driver.Options{})
		if err != nil {
			return nil, fmt.Errorf("set-up: compile %s: %w", p.name, err)
		}
		res := search.ExploreDFS(ctx, prog, search.Options{})
		if !res.Exhausted {
			return nil, fmt.Errorf("set-up: oracle for %s did not finish", p.name)
		}
		e.explore = append(e.explore, prog)
		e.oracle = append(e.oracle, outcomeKeys(res.Outcomes))
	}

	var err error
	if e.hotd, err = startDaemon(); err != nil {
		return nil, err
	}
	// Compile the hot set inside the server, so the measured serve-hot
	// requests are all cache hits or coalesced flights.
	for k := range e.in.hot {
		got, err := e.hotd.analyze(e.hotBody[k])
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: warm hot set: %w", err)
		}
		if want := e.expect[e.in.hot[k].base]; got != want {
			e.close()
			return nil, fmt.Errorf("set-up: hot %s: verdict %v, want %v", e.in.hot[k].file, got, want)
		}
	}
	return e, nil
}

func (e *env) close() { e.hotd.close() }

// outcomeKeys is the sorted identity of a search's outcome set.
func outcomeKeys(outs []search.Outcome) string {
	keys := make([]string, len(outs))
	for i, o := range outs {
		keys[i] = o.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{Concurrency: nproc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	d := &daemon{
		http:      &http.Server{Handler: srv.Handler()},
		transport: transport,
		client:    &http.Client{Transport: transport, Timeout: 30 * time.Second},
		url:       "http://" + ln.Addr().String(),
		served:    make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the daemon and waits for its serve loop to end.
func (d *daemon) close() {
	if d == nil || d.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a drain error still ends Serve below
	<-d.served
	d.transport.CloseIdleConnections()
	d.http = nil
}

// analyze posts one /v1/analyze body and returns the verdict.
func (d *daemon) analyze(body []byte) (verdict, error) {
	resp, err := d.client.Post(d.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return verdict{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return verdict{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return verdict{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ar server.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return verdict{}, err
	}
	if ar.Schema != server.APISchema {
		return verdict{}, fmt.Errorf("schema %q", ar.Schema)
	}
	v := verdict{Verdict: ar.Result.Verdict.String()}
	if ar.Result.UB != nil && ar.Result.UB.Behavior != nil {
		v.UB = ar.Result.UB.Behavior.Code
	}
	return v, nil
}

// metrics reads /metrics over HTTP. It fails if the artifact tier is on:
// the server's compile histogram then counts artifact loads and stores,
// and server.compile_ms would no longer be frontend time.
func (d *daemon) metrics() (*server.MetricsResponse, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	if _, on := raw["artifact"]; on {
		return nil, errors.New("/metrics has an artifact block: the artifact tier is on")
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
