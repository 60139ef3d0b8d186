// Cluster chaos mode (-cluster N): spawn N real undefd shard processes
// plus an in-process cluster router, drive the analyze workload through
// the router, SIGKILL -kill shards mid-load and restart them, then audit
// the serving invariants the cluster promises:
//
//   - zero client-visible crashes: every request got a structured answer
//     (a verdict, an honest 429, or — when every replica attempt failed
//     within the retry budget — a typed 503), never a transport error or
//     torn body
//   - exact counter agreement: the client-side verdict tally equals the
//     router's delivered counters, and each live shard's own verdict
//     counters equal the router's per-instance delivered counts — the
//     remainder is attributable, verdict for verdict, to the killed
//     incarnations
//   - every live shard's admission queue drained
//   - when a shard was killed and restarted, its breaker recorded the
//     full open → half-open → closed recovery cycle
//   - the router's cross-node single-flight coalesced duplicate compiles
//   - a restarted shard recompiles: a key its dead incarnation compiled
//     costs it exactly one frontend pass and yields the same verdict
//   - a failover under a pinned trace identity assembles into one
//     cross-node trace
//
// The shards are separate OS processes (undefbench re-execs itself with
// the hidden -shard-exec flag), so the kill is a real SIGKILL: no defers
// run, no counters flush, the TCP socket just dies — exactly the failure
// the router exists to absorb.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/suite"
)

// clusterOpts carries the -cluster run configuration.
type clusterOpts struct {
	shards     int
	kill       int
	conns      int
	dur        time.Duration
	dup        float64
	seed       int64
	injectSpec string
	injectSeed uint64
	asJSON     bool
}

// clusterReport is the machine-readable cluster-audit result (-json).
type clusterReport struct {
	report
	Shards    int `json:"shards"`
	Killed    int `json:"killed"`
	Restarted int `json:"restarted"`
	// RouterDelivered is the router's total delivered-verdict count;
	// DeadDelivered is the share attributed to killed incarnations.
	RouterDelivered int64 `json:"router_delivered"`
	DeadDelivered   int64 `json:"dead_delivered"`
	// InstanceMatch: every live shard's own verdict counters equal the
	// router's per-instance delivered counts. BreakerCycle: a killed
	// shard's breaker recorded open → half-open → closed. ZeroErrors:
	// no client-visible transport or malformed-body failures.
	InstanceMatch bool  `json:"instance_match"`
	BreakerCycle  bool  `json:"breaker_cycle"`
	ZeroErrors    bool  `json:"zero_errors"`
	Failovers     int64 `json:"failovers"`
	InjectedFails int64 `json:"injected_failures"`
	// Unavailable counts structured 503 refusals: requests whose every
	// replica attempt failed within the retry budget, answered with an
	// honest typed error body instead of a hang or a torn response.
	Unavailable int64 `json:"unavailable_503"`

	// RouterCoalesced counts forwards the router held behind an identical
	// in-flight key; CoalesceOK gates RouterCoalesced > 0 whenever the
	// workload had duplicates to coalesce. RestartCompiles is the
	// restarted shard's compile delta over one probe of a key its dead
	// incarnation compiled, and RestartOK is the gate: exactly one
	// recompile, and the same verdict as before the kill.
	RouterCoalesced int64 `json:"router_coalesced"`
	CoalesceOK      bool  `json:"coalesce_ok"`
	RestartCompiles int64 `json:"restart_compiles"`
	RestartOK       bool  `json:"restart_ok"`
	// PreKillP99NS and PostKillP99NS split the client p99 at the first
	// SIGKILL: requests started before it, and the rest. Reported, not
	// gated — wall time on a shared machine is too noisy for a bound.
	PreKillP99NS  int64 `json:"pre_kill_p99_ns,omitempty"`
	PostKillP99NS int64 `json:"post_kill_p99_ns,omitempty"`

	// Trace-assembly audit: one failover forced under a known trace
	// identity, then the router's /v1/trace/{id} pulled and checked.
	// TraceShardProcs counts distinct shard process rows in the assembled
	// trace; TraceFailedFwd reports whether the router's side shows the
	// failed forward attempt; TraceAssembled is the gate — the one trace
	// must contain the router's spans plus spans from at least two shard
	// incarnations.
	TraceShardProcs int  `json:"trace_shard_procs"`
	TraceFailedFwd  bool `json:"trace_failed_forward"`
	TraceAssembled  bool `json:"trace_assembled"`
}

// restartProbeSrc is the restart audit's translation unit, which no
// workload case collides with. A victim shard analyzes it before it is
// SIGKILLed and again after its restart: the new process knows nothing
// of it, so it must compile it once more and reach the same verdict.
const restartProbeSrc = "int main(void) { int restart_probe = 41; return restart_probe / (restart_probe - 41); }\n"

// runShardProc is the hidden -shard-exec main: one undefd shard serving
// on a fixed address until the parent kills the process.
func runShardProc(addr, id string) int {
	srv, err := server.New(server.Config{ShardID: id})
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench shard %s: %v\n", id, err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench shard %s: %v\n", id, err)
		return 1
	}
	go srv.Warmup(context.Background())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "undefbench shard %s: serve: %v\n", id, err)
		return 1
	}
	return 0
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The tiny bind race against other processes is acceptable in a
// benchmark harness.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// spawnShard re-execs this binary as one shard process on addr.
func spawnShard(addr, id string) (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0], "-shard-exec", "-shard-addr", addr, "-shard-id", id)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// waitReady polls a /readyz until it answers 200 (the shard is up and
// compile-cache warm) or the deadline passes.
func waitReady(client *http.Client, addr string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready before deadline", addr)
}

func runCluster(opts clusterOpts) int {
	if opts.kill >= opts.shards {
		opts.kill = opts.shards - 1 // at least one shard must survive
	}
	ports, err := freePorts(opts.shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: ports: %v\n", err)
		return 1
	}

	// Real shard processes: a SIGKILL later must be a real process death.
	procs := make([]*exec.Cmd, opts.shards)
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()
	for i, addr := range ports {
		p, err := spawnShard(addr, fmt.Sprintf("s%d", i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: spawn shard %d: %v\n", i, err)
			return 1
		}
		procs[i] = p
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.conns}}
	readyBy := time.Now().Add(30 * time.Second)
	for _, addr := range ports {
		if err := waitReady(client, addr, readyBy); err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: %v\n", err)
			return 1
		}
	}

	// The router rides in-process: its failover loop, breakers, and
	// delivered counters are the objects under audit, and its /metrics is
	// served over HTTP like production so the audit reads the wire shape.
	var injector *fault.Injector
	if opts.injectSpec != "" {
		rules, err := fault.ParseSpec(opts.injectSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: -inject: %v\n", err)
			return 2
		}
		injector = fault.NewInjector(opts.injectSeed, rules...)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:        ports,
		ProbeInterval: 100 * time.Millisecond,
		Injector:      injector,
		Seed:          opts.seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: router: %v\n", err)
		return 1
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: %v\n", err)
		return 1
	}
	rt.Start()
	defer rt.Stop()
	rtSrv := &http.Server{Handler: rt.Handler()}
	go rtSrv.Serve(rln)
	defer rtSrv.Close()
	url := "http://" + rln.Addr().String()

	corpus := suite.Juliet().Cases
	hot := corpus
	if len(hot) > 4 {
		hot = corpus[:4]
	}

	// Seed the restart audit: the first victim analyzes the probe BEFORE
	// the chaos kills it. Its cache and counters die with the SIGKILL.
	var preKillVerdict string
	if opts.kill > 0 {
		if preKillVerdict, err = probeAnalyze(client, ports[0], restartProbeSrc, "restart_probe.c"); err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: restart-probe seed: %v\n", err)
			return 1
		}
	}

	// The chaos schedule: SIGKILL the victims at 35% of the run, restart
	// them on the same ports (same ring positions) at 60%, so the run ends
	// with every breaker recovered and every shard back in rotation.
	deadline := time.Now().Add(opts.dur)
	restarted := make(chan int, 1)
	var killed atomic.Bool
	var chaos sync.WaitGroup
	if opts.kill > 0 {
		chaos.Add(1)
		go func() {
			defer chaos.Done()
			time.Sleep(opts.dur * 35 / 100)
			killed.Store(true)
			for i := 0; i < opts.kill; i++ {
				procs[i].Process.Kill()
				procs[i].Wait()
				procs[i] = nil
			}
			time.Sleep(opts.dur * 25 / 100)
			n := 0
			for i := 0; i < opts.kill; i++ {
				p, err := spawnShard(ports[i], fmt.Sprintf("s%d", i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "undefbench: restart shard %d: %v\n", i, err)
					continue
				}
				procs[i] = p
				n++
			}
			restarted <- n
		}()
	} else {
		restarted <- 0
	}

	stats := make([]workerStats, opts.conns)
	// postKill[w] counts worker w's latencies, a suffix of its list, from
	// requests started after the first SIGKILL.
	postKill := make([]int, opts.conns)
	var wg sync.WaitGroup
	for w := 0; w < opts.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.seed + int64(w)))
			st := &stats[w]
			st.verdicts = make(map[string]int64)
			for time.Now().Before(deadline) {
				c := &corpus[rng.Intn(len(corpus))]
				if rng.Float64() < opts.dup {
					c = &hot[rng.Intn(len(hot))]
				}
				after, n := killed.Load(), len(st.latencies)
				oneRequest(client, url, c, st)
				if after {
					postKill[w] += len(st.latencies) - n
				}
			}
		}(w)
	}
	wg.Wait()
	chaos.Wait()

	rep := clusterReport{Shards: opts.shards, Killed: opts.kill, Restarted: <-restarted}
	rep.Addr = rln.Addr().String()
	rep.Connections = opts.conns
	rep.DurationNS = opts.dur.Nanoseconds()
	rep.Verdicts = map[string]int64{}
	var all, pre, post []time.Duration
	for i := range stats {
		st := &stats[i]
		all = append(all, st.latencies...)
		cut := len(st.latencies) - postKill[i]
		pre = append(pre, st.latencies[:cut]...)
		post = append(post, st.latencies[cut:]...)
		rep.Rejected += st.rejected
		rep.Unavailable += st.unavailable
		rep.Errors += st.errors
		rep.Coalesced += st.coalesced
		for v, n := range st.verdicts {
			rep.Verdicts[v] += n
		}
	}
	rep.Requests = int64(len(all))
	rep.Throughput = float64(rep.Requests) / opts.dur.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50NS = percentile(all, 0.50).Nanoseconds()
	rep.P95NS = percentile(all, 0.95).Nanoseconds()
	rep.P99NS = percentile(all, 0.99).Nanoseconds()
	if n := len(all); n > 0 {
		rep.MaxNS = all[n-1].Nanoseconds()
	}
	if opts.kill > 0 {
		sort.Slice(pre, func(i, j int) bool { return pre[i] < pre[j] })
		sort.Slice(post, func(i, j int) bool { return post[i] < post[j] })
		rep.PreKillP99NS = percentile(pre, 0.99).Nanoseconds()
		rep.PostKillP99NS = percentile(post, 0.99).Nanoseconds()
	}

	// Let in-flight shard work settle before reading counters: the last
	// responses were relayed, but a shard's own tally is written before
	// its response, so no wait is needed for correctness — only for the
	// queue-drained check to see idle queues.
	time.Sleep(200 * time.Millisecond)
	auditCluster(client, url, ports, procs, &rep)
	// The restart audit runs strictly AFTER auditCluster: its direct
	// shard probe bumps shard-local verdict counters the router never
	// delivered, which would wrongly fail the instance-match invariant.
	auditRestart(client, url, ports, procs, opts, preKillVerdict, &rep)
	// The trace audit runs LAST of all: it SIGKILLs a shard for real to
	// force a failover under a known trace identity, which would wreck
	// every earlier reconciliation.
	auditTrace(client, url, ports, procs, opts, &rep)

	if opts.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&rep)
	} else {
		printClusterReport(&rep)
	}
	if !rep.ServerOK || !rep.TallyMatch || !rep.InstanceMatch || !rep.QueueEmpty ||
		!rep.ZeroErrors || !rep.BreakerCycle || !rep.RestartOK || !rep.CoalesceOK ||
		!rep.TraceAssembled {
		return 1
	}
	return 0
}

// probeAnalyze posts one source straight to a shard (bypassing the
// router), requires a verdict-bearing 200, and returns the verdict with
// its UB diagnostic, if any.
func probeAnalyze(client *http.Client, addr, src, file string) (string, error) {
	body, err := json.Marshal(server.AnalyzeRequest{Source: src, File: file})
	if err != nil {
		return "", err
	}
	resp, err := client.Post("http://"+addr+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return "", fmt.Errorf("shard %s: probe status %d", addr, resp.StatusCode)
	}
	var ar server.AnalyzeResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ar); err != nil {
		return "", fmt.Errorf("shard %s: probe body: %v", addr, err)
	}
	verdict := ar.Result.Verdict.String()
	if ar.Result.UB != nil {
		verdict += ": " + ar.Result.UB.Error()
	}
	return verdict, nil
}

// auditRestart fills the router's coalescing count and — when the chaos
// killed and restarted a shard — the restart gate: the restarted shard,
// asked directly for the key its dead incarnation compiled before the
// kill, must run the frontend exactly once more and reach the same
// verdict. Nothing survives a SIGKILL; the ring routing keys back to the
// restarted shard is what rewarms it.
func auditRestart(client *http.Client, url string, ports []string, procs []*exec.Cmd, opts clusterOpts, preKillVerdict string, rep *clusterReport) {
	rm, err := fetchRouterMetrics(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: router /metrics unreachable in restart audit: %v\n", err)
		rep.ServerOK = false
		return
	}
	rep.RouterCoalesced = rm.Coalesced
	// With duplicate traffic in the workload, the cluster-wide
	// single-flight must have held at least one follower.
	rep.CoalesceOK = opts.dup <= 0 || rep.RouterCoalesced > 0

	rep.RestartOK = true
	if opts.kill == 0 || rep.Restarted == 0 || procs[0] == nil {
		return
	}
	rep.RestartOK = false
	addr := ports[0]
	if err := waitReady(client, addr, time.Now().Add(15*time.Second)); err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: restarted shard: %v\n", err)
		return
	}
	before, err := fetchMetrics(client, "http://"+addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: restarted shard /metrics: %v\n", err)
		return
	}
	verdict, err := probeAnalyze(client, addr, restartProbeSrc, "restart_probe.c")
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: restart probe: %v\n", err)
		return
	}
	after, err := fetchMetrics(client, "http://"+addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: restarted shard /metrics: %v\n", err)
		return
	}
	rep.RestartCompiles = after.Cache.Compiles - before.Cache.Compiles
	if verdict != preKillVerdict {
		fmt.Fprintf(os.Stderr, "undefbench: restart probe verdict %q, before the kill %q\n", verdict, preKillVerdict)
	}
	rep.RestartOK = rep.RestartCompiles == 1 && verdict == preKillVerdict
}

// tracedAnalyze posts one source through the router, optionally under an
// explicit trace identity, and returns the answering shard's ID and the
// router's attempt count (both from response headers).
func tracedAnalyze(client *http.Client, url, src, file, traceID string) (shard, attempts string, err error) {
	body, err := json.Marshal(server.AnalyzeRequest{Source: src, File: file})
	if err != nil {
		return "", "", err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Undefc-Trace-Id", traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("analyze status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Undefc-Shard"), resp.Header.Get("X-Undefc-Attempts"), nil
}

// auditTrace forces one failover under a known trace identity and checks
// that the router's /v1/trace/{id} assembles ONE cross-node Chrome trace
// out of it: the router's own spans (including the failed attempt and the
// retry) stitched with the spans of every shard the identity touched. It
// must run last — the victim shard stays dead.
func auditTrace(client *http.Client, url string, ports []string, procs []*exec.Cmd, opts clusterOpts, rep *clusterReport) {
	if opts.shards < 3 || opts.kill == 0 {
		rep.TraceAssembled = true // no failover topology to assemble across
		return
	}
	const traceID = "c0ffee0000000001"
	// Discovery: find a distinct probe (source, file) pair routed to each
	// shard, read off the X-Undefc-Shard header. No trace header yet — the
	// probes must not pollute the trace under audit. The replay below MUST
	// reuse the exact pair: the ring key is driver.SourceKey over source
	// AND file, so changing either would route somewhere else.
	type probe struct{ src, file string }
	probeFor := make(map[string]probe)
	for i := 0; i < 96 && len(probeFor) < len(ports); i++ {
		p := probe{
			src:  fmt.Sprintf("int main(void) { int trace_probe_%d = %d; return trace_probe_%d - %d; }\n", i, i, i, i),
			file: fmt.Sprintf("trace_probe_%d.c", i),
		}
		sh, _, err := tracedAnalyze(client, url, p.src, p.file, "")
		if err != nil || sh == "" {
			continue
		}
		if _, ok := probeFor[sh]; !ok {
			probeFor[sh] = p
		}
	}
	if len(probeFor) < 3 {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: probes reached only %d of %d shards\n", len(probeFor), len(ports))
		return
	}
	// Victim: the last ring position with a live process and a known
	// probe. The other discovered shards stay alive, so at least two of
	// them will contribute spans under the shared identity.
	victim := -1
	for i := len(ports) - 1; i >= 0; i-- {
		if procs[i] != nil && probeFor[fmt.Sprintf("s%d", i)].src != "" {
			victim = i
			break
		}
	}
	if victim < 0 {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: no live shard with a probe source\n")
		return
	}
	victimID := fmt.Sprintf("s%d", victim)
	// Every surviving shard records its side of the trace first.
	for id, p := range probeFor {
		if id == victimID {
			continue
		}
		if _, _, err := tracedAnalyze(client, url, p.src, p.file, traceID); err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: trace audit: %s request: %v\n", id, err)
			return
		}
	}
	// SIGKILL the victim and replay its probe under the same identity
	// immediately — before the prober notices — so the router's attempt at
	// the dead shard is real: connection refused, backoff, failover.
	procs[victim].Process.Kill()
	procs[victim].Wait()
	procs[victim] = nil
	vp := probeFor[victimID]
	if _, _, err := tracedAnalyze(client, url, vp.src, vp.file, traceID); err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: failover request: %v\n", err)
		return
	}

	resp, err := client.Get(url + "/v1/trace/" + traceID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: /v1/trace: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: /v1/trace status %d\n", resp.StatusCode)
		return
	}
	var tr obs.ChromeTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&tr); err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: trace audit: decode: %v\n", err)
		return
	}
	router := false
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			switch name := ev.Args["name"]; {
			case name == "router":
				router = true
			case strings.HasPrefix(name, "shard "):
				rep.TraceShardProcs++
			}
		case ev.Ph == "X" && ev.Name == "forward" && ev.Args["error"] != "":
			rep.TraceFailedFwd = true
		}
	}
	rep.TraceAssembled = router && rep.TraceShardProcs >= 2
}

// auditCluster reads the router and live-shard /metrics and fills the
// report's invariant verdicts. A /metrics that cannot be read at audit
// time is itself an audit failure: an invariant that cannot be checked
// is not an invariant that held.
func auditCluster(client *http.Client, url string, ports []string, procs []*exec.Cmd, rep *clusterReport) {
	rm, err := fetchRouterMetrics(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: router /metrics unreachable at audit time: %v\n", err)
		rep.ServerOK = false
		return
	}
	rep.ServerOK = true
	rep.Failovers = rm.Forward.Failovers
	rep.InjectedFails = rm.Forward.Failures
	for _, v := range rm.Delivered {
		rep.RouterDelivered += v
	}

	// Invariant 1: the client-side verdict tally equals the router's
	// delivered counters, verdict for verdict. The router is fresh for
	// this run, so no before-snapshot is needed.
	rep.TallyMatch = len(rep.Verdicts) == len(rm.Delivered)
	for v, n := range rep.Verdicts {
		if rm.Delivered[v] != n {
			rep.TallyMatch = false
		}
	}

	// Invariant 2: each live shard's own verdict counters equal the
	// router's per-instance delivered counts; what remains of the total is
	// attributed to dead incarnations. The same sweep checks each live
	// shard's admission queue drained.
	rep.InstanceMatch = true
	rep.QueueEmpty = true
	var liveDelivered int64
	for i, addr := range ports {
		if procs[i] == nil {
			continue
		}
		sm, err := fetchMetrics(client, "http://"+addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: shard %s /metrics unreachable at audit time: %v\n", addr, err)
			rep.ServerOK = false
			return
		}
		perInst := rm.DeliveredByInstance[sm.Instance]
		if len(sm.Verdicts) != len(perInst) {
			rep.InstanceMatch = false
		}
		for v, n := range sm.Verdicts {
			if perInst[v] != n {
				rep.InstanceMatch = false
			}
			liveDelivered += n
		}
		if sm.Queue.Depth != 0 || sm.Queue.Active != 0 {
			rep.QueueEmpty = false
		}
	}
	rep.DeadDelivered = rep.RouterDelivered - liveDelivered

	// Invariant 3: no client-visible crash — every request was answered
	// with a structured body.
	rep.ZeroErrors = rep.Errors == 0

	// Invariant 4: a killed-and-restarted shard's breaker walked the full
	// open → half-open → closed recovery cycle.
	rep.BreakerCycle = true
	if rep.Killed > 0 && rep.Restarted > 0 {
		rep.BreakerCycle = false
		for _, sh := range rm.Shards {
			b := sh.Breaker
			if b.Opens >= 1 && b.HalfOpens >= 1 && b.Closes >= 1 && b.State == "closed" {
				rep.BreakerCycle = true
			}
		}
	}
}

// fetchRouterMetrics reads the router's undefc.cluster/v1 metrics body.
func fetchRouterMetrics(client *http.Client, url string) (*cluster.RouterMetrics, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m cluster.RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	if m.Schema != cluster.MetricsSchema {
		return nil, fmt.Errorf("unexpected schema %q", m.Schema)
	}
	return &m, nil
}

func printClusterReport(rep *clusterReport) {
	fmt.Printf("undefbench: cluster of %d shards (%d killed, %d restarted), %d connections, %s through router %s\n",
		rep.Shards, rep.Killed, rep.Restarted, rep.Connections, time.Duration(rep.DurationNS), rep.Addr)
	fmt.Printf("  requests:  %d ok, %d rejected (429), %d refused (503), %d errors — %.1f req/s\n",
		rep.Requests, rep.Rejected, rep.Unavailable, rep.Errors, rep.Throughput)
	fmt.Printf("  latency:   p50 %s · p95 %s · p99 %s · max %s  (client-side, through router)\n",
		time.Duration(rep.P50NS), time.Duration(rep.P95NS), time.Duration(rep.P99NS), time.Duration(rep.MaxNS))
	fmt.Printf("  verdicts: ")
	var keys []string
	for v := range rep.Verdicts {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		fmt.Printf("  %s %d", v, rep.Verdicts[v])
	}
	fmt.Println()
	fmt.Printf("  failover:  %d failovers over %d failed attempts · %d verdicts from killed incarnations\n",
		rep.Failovers, rep.InjectedFails, rep.DeadDelivered)
	fmt.Printf("  coalesce:  router held %d duplicate forwards behind an in-flight compile\n", rep.RouterCoalesced)
	if rep.Killed > 0 {
		fmt.Printf("  restart:   %d recompiles for the pre-kill probe · client p99 %s before the kill, %s after (reported, not gated)\n",
			rep.RestartCompiles, time.Duration(rep.PreKillP99NS), time.Duration(rep.PostKillP99NS))
	}
	fmt.Printf("  trace:     %d shard processes in the assembled failover trace (failed attempt visible: %v)\n",
		rep.TraceShardProcs, rep.TraceFailedFwd)
	check := func(name string, ok bool) {
		state := "ok"
		if !ok {
			state = "FAILED"
		}
		fmt.Printf("  check:     %-36s %s\n", name, state)
	}
	check("router + live shards reachable", rep.ServerOK)
	check("zero client-visible crashes", rep.ZeroErrors)
	check("client tally == router delivered", rep.TallyMatch)
	check("live shard counters reconcile", rep.InstanceMatch)
	check("admission queues drained", rep.QueueEmpty)
	check("breaker cycled open→half-open→closed", rep.BreakerCycle)
	check("router coalesced duplicate compiles", rep.CoalesceOK)
	check("restarted shard recompiles", rep.RestartOK)
	check("failover trace assembled across nodes", rep.TraceAssembled)
}
