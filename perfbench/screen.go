package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"determinacy"
)

// Some generated programs need far more memory than the rest: they build
// strings that grow on every loop iteration. The analysis of seed 48's
// program 414 of serve-mix passes 1.2 GB; seed 64's program 557 analyzes
// in 47 MB, but its facts hold strings of megabytes, and rendering and
// encoding them allocate over 1 GB. Neither the analyzer nor the server
// bounds this, so one such request can exhaust a host's memory. serve-mix
// sends none of them: the reference analyses run in child processes that
// stop when one program's analysis, fact rendering and encoding have
// allocated more than screenAllocBytes in all, and a program that stopped
// its child is replaced by the next generated one. The total allocated is
// the same from run to run, unlike the heap's size at a moment, so the
// same programs are screened out every time. README.md ("Inputs and
// seeds") has how the programs' allocations are distributed.
const screenAllocBytes = 256 << 20

// screenAddressSpace bounds how far a reference child's address space may
// grow past its size at start, in case an allocation outruns the
// allocation check.
const screenAddressSpace = 1 << 30

// exitScreened is the exit code of a reference child whose program passed
// screenAllocBytes.
const exitScreened = 3

// reference is what a cache-free, server-free analysis of a program gives.
// A screened-out program has none.
type reference struct {
	digest   digest
	facts    int
	screened bool
}

// referenceLine is one line a reference child prints: one program's
// result.
type referenceLine struct {
	CRC   uint32 `json:"crc"`
	N     int    `json:"n"`
	Facts int    `json:"facts"`
	Err   string `json:"err,omitempty"`
}

// references analyzes programs without cache or server in child
// processes, one per CPU, each taking every n-th program.
func references(work string, programs []string) ([]reference, error) {
	out := make([]reference, len(programs))
	n := runtime.NumCPU()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		var stripe []int
		for i := w; i < len(programs); i += n {
			stripe = append(stripe, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = referenceStripe(work, programs, stripe, out)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// referenceStripe runs children over the programs at stripe until each
// has a result. A child that stops at the allocation bound screens out the
// program it was on, and the next child starts after it.
func referenceStripe(work string, programs []string, stripe []int, out []reference) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for len(stripe) > 0 {
		srcs := make([]string, len(stripe))
		for k, i := range stripe {
			srcs[k] = programs[i]
		}
		input, err := json.Marshal(srcs)
		if err != nil {
			return err
		}
		child := exec.Command(exe, "--reference")
		child.Dir = work
		child.Stdin = bytes.NewReader(input)
		var stderr bytes.Buffer
		child.Stderr = &stderr
		stdout, err := child.StdoutPipe()
		if err != nil {
			return err
		}
		if err := child.Start(); err != nil {
			return fmt.Errorf("reference analysis: %w", err)
		}
		done := 0
		sc := bufio.NewScanner(stdout)
		var lineErr error
		for sc.Scan() && done < len(stripe) {
			var line referenceLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				lineErr = err
				break
			}
			if line.Err != "" {
				lineErr = fmt.Errorf("reference analysis: %s", line.Err)
				break
			}
			out[stripe[done]] = reference{digest: digest{line.CRC, line.N}, facts: line.Facts}
			done++
		}
		if lineErr != nil {
			child.Process.Kill()
		}
		waitErr := child.Wait()
		if lineErr != nil {
			return lineErr
		}
		if waitErr == nil {
			if done < len(stripe) {
				return fmt.Errorf("reference analysis: child ended after %d of %d programs", done, len(stripe))
			}
			return nil
		}
		if !outgrew(waitErr, stderr.String()) || done == len(stripe) {
			return fmt.Errorf("reference analysis: %w: %.500s", waitErr, stderr.String())
		}
		out[stripe[done]].screened = true
		stripe = stripe[done+1:]
	}
	return nil
}

// outgrew says whether a reference child ended because its program
// passed the allocation bound or ran out of its address space, rather than
// failing some other way.
func outgrew(err error, stderr string) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	return exit.ExitCode() == exitScreened || strings.Contains(stderr, "out of memory")
}

// referenceChild is the child process of references: it reads a JSON list
// of programs from standard input and prints one referenceLine per
// program, in order, each as soon as it is known. It exits with
// exitScreened when a program's analysis passes screenAllocBytes.
func referenceChild() error {
	runtime.GOMAXPROCS(1)
	size, err := procStatusKB("VmSize")
	if err != nil {
		return err
	}
	as := uint64(size)<<10 + screenAddressSpace
	if err := syscall.Setrlimit(syscall.RLIMIT_AS, &syscall.Rlimit{Cur: as, Max: as}); err != nil {
		return err
	}
	var srcs []string
	if err := json.NewDecoder(os.Stdin).Decode(&srcs); err != nil {
		return err
	}
	var base atomic.Uint64 // heapAllocs when the current program started
	base.Store(heapAllocs())
	go watchAllocs(&base)
	enc := json.NewEncoder(os.Stdout)
	for _, src := range srcs {
		base.Store(heapAllocs())
		var line referenceLine
		res, err := determinacy.Analyze(src, determinacy.Options{MaxFlushes: maxFlushes})
		if err == nil {
			var d digest
			d, err = referenceDigest(res)
			line = referenceLine{CRC: d.crc, N: d.n, Facts: res.NumFacts()}
		}
		if err != nil {
			line.Err = err.Error()
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// watchAllocs ends the process with exitScreened once the program being
// analyzed has allocated more than screenAllocBytes since base.
func watchAllocs(base *atomic.Uint64) {
	for range time.Tick(2 * time.Millisecond) {
		if heapAllocs()-base.Load() > screenAllocBytes {
			fmt.Fprintf(os.Stderr, "perfbench: reference analysis allocated more than %d MB\n", screenAllocBytes>>20)
			os.Exit(exitScreened)
		}
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// screen makes sure every program in progs has a reference, replacing each
// screened-out program with the next one gen makes, and returns the
// references and how many programs it replaced.
func screen(work string, progs []string, gen func() string) ([]reference, int, error) {
	ref, err := references(work, progs)
	if err != nil {
		return nil, 0, err
	}
	replaced := 0
	for {
		var redo []int
		for i, r := range ref {
			if r.screened {
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			return ref, replaced, nil
		}
		replaced += len(redo)
		srcs := make([]string, len(redo))
		for k, i := range redo {
			progs[i] = gen()
			srcs[k] = progs[i]
		}
		again, err := references(work, srcs)
		if err != nil {
			return nil, 0, err
		}
		for k, i := range redo {
			ref[i] = again[k]
		}
	}
}

// childCPUTime is the CPU time of every child process the benchmark has
// waited for.
func childCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
