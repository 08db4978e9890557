package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// calibration times a fixed computation that uses the Go standard library
// only, between a workload's operations. The host the benchmark was
// written on is a 2-vCPU guest of a shared machine whose speed changes
// over minutes by up to 40% without stolen time showing it: CPU time per
// operation, and this computation's CPU time with it, rose and fell
// together (README.md, "Host speed"). The gated cost of an operation is
// therefore its CPU time in calibration units.
//
// The units run in child processes, one per CPU at once, each on one
// thread. In a child they allocate into a small fresh heap, whatever the
// workload holds live, and the workload's heap never sees their garbage.
// The calibration switches speed in steps: inside a run, a lone child's
// units took either about 30 or about 40 ms from one block to the next.
// With one child per CPU, a block's figure is the mean of the children's
// medians, the speed of the CPUs together, which is what a workload
// running on all of them meets. A change to the repository's
// code cannot move the calibration: it calls none of it.
type calibration struct {
	every  time.Duration // run a block when this long has passed since the last
	last   time.Time
	blocks sample // each block's figure, in milliseconds of CPU time per unit
}

// calUnits is how many units one child process times, after one untimed
// unit that grows its heap.
const calUnits = 3

func newCalibration(every time.Duration) *calibration {
	return &calibration{every: every, last: time.Now()}
}

// maybe runs a block if the last one ran at least c.every ago.
func (c *calibration) maybe() error {
	if time.Since(c.last) < c.every {
		return nil
	}
	return c.block()
}

// block runs one child process per CPU at once and waits for all of them.
func (c *calibration) block() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	children := make([]*exec.Cmd, runtime.NumCPU())
	outs := make([]bytes.Buffer, len(children))
	for i := range children {
		children[i] = exec.Command(exe, "--calibrate", strconv.Itoa(calUnits))
		children[i].Stdout = &outs[i]
		if err := children[i].Start(); err != nil {
			for _, started := range children[:i] {
				started.Wait()
			}
			return fmt.Errorf("calibration: %w", err)
		}
	}
	var errs []error
	for _, child := range children {
		errs = append(errs, child.Wait())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	var sum float64
	for i := range outs {
		var units sample
		if err := json.Unmarshal(outs[i].Bytes(), &units); err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		sum += units.median()
	}
	c.blocks = append(c.blocks, sum/float64(len(outs)))
	c.last = time.Now()
	return nil
}

// calibrate is the child process: it times n units, each from a collected
// heap, and prints their CPU times in milliseconds as a JSON list. It runs
// on one thread, so the collector's work is the same in every unit and
// lands on the same CPU as the rest: with two, the units of one child
// spread three times as far between quartiles.
func calibrate(n int) error {
	runtime.GOMAXPROCS(1)
	calibrationUnit()
	units := make([]float64, n)
	for i := range units {
		runtime.GC()
		cpu0 := cpuTime()
		calibrationUnit()
		units[i] = ms(cpuTime() - cpu0)
	}
	return json.NewEncoder(os.Stdout).Encode(units)
}

// mean is the mean of the blocks' figures. A child's speed switches
// between about 26 and about 40 ms per unit every few seconds, and a
// workload's operations meet both speeds; the mean over blocks spread
// through the run is the average speed they met.
func (c *calibration) mean() float64 { return c.blocks.sum() / float64(len(c.blocks)) }

// calSink keeps the unit's result, so the compiler cannot drop its work.
var calSink uint64

// calibrationUnit is about 35 ms of the kinds of work the workloads do:
// allocation and garbage collection, map inserts, pointer-linked nodes,
// sorting and JSON encoding, all from a fixed seed. It works in rounds
// that each leave their garbage behind, so its live heap stays small and
// it adds little to a workload's peak RSS.
func calibrationUnit() {
	type node struct {
		key  uint64
		next *node
		vals []int
	}
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 8; round++ {
		m := make(map[uint64]*node)
		var prev *node
		for i := 0; i < 8_000; i++ {
			n := &node{key: r.Uint64(), next: prev, vals: make([]int, 4)}
			m[n.key] = n
			prev = n
		}
		xs := make([]uint64, 25_000)
		for i := range xs {
			xs[i] = r.Uint64()
		}
		slices.Sort(xs)
		b, _ := json.Marshal(xs[:2_500]) // cannot fail: a slice of numbers
		calSink += uint64(len(m)+len(b)) + prev.key + xs[len(xs)/2]
	}
}
