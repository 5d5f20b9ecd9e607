// Multi-process supervisor mode: -shards=N together with -listen runs
// the election's synchronous rounds across N real shardd worker
// processes over loopback sockets (DESIGN.md §12) instead of in-process
// goroutines. electsim computes the advice, stages the graph and
// advice as files, allocates the data-plane addresses, and supervises
// via shard.RunProc; the outcome is bit-identical to every other
// engine.
//
//	electsim -graph random -n 100000 -algo mintime -shards=4 -listen=127.0.0.1:0
//	electsim -graph hairy -n 64 -algo mintime -shards=3 -listen=127.0.0.1:0 -chaos=7
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	election "repro"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// runProcMode is the -listen branch of run(): advice, staging, worker
// spawning, supervision, verification, reporting. Returns the exit code.
func runProcMode(ctx context.Context, s *election.System, g *election.Graph, phi, shards int, seed, chaos int64, network, listen, peersFlag, sharddBin string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		return 1
	}
	bin, err := findShardd(sharddBin)
	if err != nil {
		return fail(err)
	}
	_, advBits, err := s.ComputeAdviceCtx(ctx, g)
	if err != nil {
		return fail(err)
	}

	dir, err := os.MkdirTemp("", "electsim-shards-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	graphPath := filepath.Join(dir, "graph.bin")
	if err := graph.SaveBinaryFile(g, graphPath); err != nil {
		return fail(err)
	}
	advPath := filepath.Join(dir, "advice.txt")
	if err := os.WriteFile(advPath, []byte(advBits.String()), 0o644); err != nil {
		return fail(err)
	}
	journalDir := filepath.Join(dir, "journal")

	var addrs []string
	if peersFlag != "" {
		addrs = strings.Split(peersFlag, ",")
		if len(addrs) != shards {
			return fail(fmt.Errorf("-peers lists %d addresses, want %d", len(addrs), shards))
		}
	} else if addrs, err = allocAddrs(network, dir, shards); err != nil {
		return fail(err)
	}

	var chaosSpec string
	if chaos != 0 {
		chaosSpec = shard.SeededChaosSpec(chaos, shards)
	}
	start := func(shardIdx, inc int, ctrlAddr string) (<-chan struct{}, error) {
		args := []string{
			"-shard", strconv.Itoa(shardIdx), "-shards", strconv.Itoa(shards), "-inc", strconv.Itoa(inc),
			"-graph", graphPath, "-advice", advPath,
			"-network", network, "-sup", ctrlAddr, "-peers", strings.Join(addrs, ","),
			"-journal", journalDir, "-seed", strconv.FormatInt(seed, 10),
		}
		if chaosSpec != "" {
			args = append(args, "-chaos", chaosSpec,
				"-chaos-seed", strconv.FormatInt(chaos^int64(shardIdx)*0x9E3779B9, 10))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		exited := make(chan struct{})
		go func() {
			cmd.Wait() //nolint:errcheck // reaped for the zombie; a registered worker's exit status is the conn's job
			close(exited)
		}()
		return exited, nil
	}

	wall := time.Now()
	res, stats, err := shard.RunProc(ctx, g, shard.ProcOptions{
		Shards: shards, Network: network, Listen: listenAddr(network, listen, dir),
		Start: start,
	})
	if err != nil {
		return fail(err)
	}
	leader, err := sim.Verify(g, res.Outputs)
	if err != nil {
		return fail(fmt.Errorf("election failed verification: %w", err))
	}
	fmt.Printf("elected leader: node %d\n", leader)
	fmt.Printf("time: %d rounds (election index %d)\n", res.Time, phi)
	fmt.Printf("advice: %d bits\n", advBits.Len())
	fmt.Printf("multi-process (%s, %v): %d workers, %d retries, %d crashes, %d recoveries",
		network, time.Since(wall).Round(time.Millisecond), stats.Shards, stats.Retries, stats.Crashes, stats.Recoveries)
	if stats.Recoveries > 0 {
		fmt.Printf(" (mean recovery %v)", stats.MeanRecovery().Round(10*time.Microsecond))
	}
	fmt.Println()
	if chaosSpec != "" {
		fmt.Printf("chaos schedule: %s\n", chaosSpec)
	}
	if res.Messages > 0 {
		fmt.Printf("messages: %d\n", res.Messages)
	}
	return 0
}

// listenAddr resolves the control listen address: tcp uses the flag
// value as-is, unix defaults into the staging dir.
func listenAddr(network, listen, dir string) string {
	if network == "unix" && (listen == "" || listen == "auto") {
		return filepath.Join(dir, "ctrl.sock")
	}
	return listen
}

// allocAddrs picks the data-plane address of every shard: socket paths
// in the staging dir for unix, kernel-reserved loopback ports for tcp.
// TCP ports are reserved by binding and immediately closing a listener;
// the window between close and the worker's own bind is a real (tiny)
// race, which loopback test rigs tolerate — production deployments
// should pass -peers explicitly.
func allocAddrs(network, dir string, shards int) ([]string, error) {
	addrs := make([]string, shards)
	if network == "unix" {
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.sock", i))
		}
		return addrs, nil
	}
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// findShardd locates the worker binary: the -shardd flag, the directory
// of the running electsim, then $PATH.
func findShardd(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "shardd")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("shardd"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find the shardd worker binary (build it with `go build ./cmd/shardd` and pass -shardd, or put it on $PATH)")
}
