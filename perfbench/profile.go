package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file splits a runtime/pprof CPU profile by layer without importing
// anything beyond the standard library: a minimal decoder for the profile's
// protobuf encoding, and a classifier that maps each sample to the layer of
// its innermost repository frame.

// frame is one (possibly inlined) function on a sample's stack.
type frame struct {
	fn   string
	file string
	line int64
}

// cpuSample is one profile sample: its stack, leaf first, and its weight
// (CPU nanoseconds).
type cpuSample struct {
	stack  []frame
	weight int64
}

// parseCPUProfile decodes a gzip-compressed pprof profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn, line uint64 }
	type function struct{ name, file uint64 }
	var (
		strs      []string
		samples   [][2][]uint64 // location ids, values
		locations = map[uint64][]line{}
		functions = map[uint64]function{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := eachField(b, func(n int, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, w, v, b)
				case 2:
					vals = appendPacked(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, [2][]uint64{locs, vals})
		case 4: // Location
			var id uint64
			var lines []line
			if err := eachField(b, func(n int, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					if err := eachField(b, func(n int, w int, v uint64, _ []byte) error {
						switch n {
						case 1:
							l.fn = v
						case 2:
							l.line = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = lines
		case 5: // Function
			var id uint64
			var f function
			if err := eachField(b, func(n int, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		var cs cpuSample
		if len(s[1]) > 1 {
			cs.weight = int64(s[1][1])
		} else if len(s[1]) == 1 {
			cs.weight = int64(s[1][0])
		}
		for _, id := range s[0] {
			for _, l := range locations[id] {
				f := functions[l.fn]
				cs.stack = append(cs.stack, frame{fn: str(f.name), file: str(f.file), line: int64(l.line)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// Layers a CPU sample can be attributed to. The per-layer metric for layer
// L is cpu.L_share.
var cpuLayers = []string{
	"spe", "selection", "agg_fire", "agg_fold", "agg_selfanout", "join",
	"router", "changelog", "durable", "gc", "bench", "other",
}

const repoPrefix = "astream/internal/"

// helperPackages hold shared utilities (bit sets, predicates, window
// arithmetic, the tuple type); their cost belongs to whichever layer called
// them, so the classifier looks past them to the caller.
var helperPackages = []string{"bitset.", "expr.", "window.", "event."}

// classifier maps samples to layers. fanoutEnd is the first source line of
// SharedAggregation.OnTuple past its selection fan-out loop; samples inside
// OnTuple above that line are fan-out, the rest fold.
type classifier struct {
	fanoutEnd map[string]int64 // agg.go path → split line
}

func newClassifier() *classifier { return &classifier{fanoutEnd: map[string]int64{}} }

// layerOf attributes one sample.
func (c *classifier) layerOf(s cpuSample) string {
	for _, f := range s.stack {
		switch f.fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcAssistAlloc1",
			"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot":
			return "gc"
		}
	}
	for _, f := range s.stack {
		if strings.HasPrefix(f.fn, "main.") {
			return "bench"
		}
		if !strings.HasPrefix(f.fn, repoPrefix) {
			continue
		}
		rest := strings.TrimPrefix(f.fn, repoPrefix)
		if hasAnyPrefix(rest, helperPackages) {
			continue
		}
		if l := c.repoLayer(rest, f); l != "" {
			return l
		}
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// repoLayer classifies a repository function (package-relative name). An
// empty result means "look at the caller".
func (c *classifier) repoLayer(fn string, f frame) string {
	switch {
	case strings.HasPrefix(fn, "checkpoint."), strings.HasPrefix(fn, "durable."):
		return "durable"
	case strings.HasPrefix(fn, "changelog."):
		return "changelog"
	case strings.HasPrefix(fn, "spe."):
		return "spe"
	case strings.HasPrefix(fn, "gen."):
		return "bench"
	case !strings.HasPrefix(fn, "core."):
		return "other"
	}
	fn = strings.TrimPrefix(fn, "core.")
	method := fn
	if i := strings.LastIndexByte(fn, '.'); i >= 0 {
		method = fn[i+1:]
	}
	switch {
	case isSnapshotFunc(method):
		return "durable"
	case method == "OnChangelog", strings.Contains(fn, "session"), strings.Contains(fn, "changelogTimes"),
		strings.HasPrefix(method, "buildSelIndex"), method == "buildIndex", method == "rebuildIndexes",
		method == "buildLattice", method == "takeEntries", method == "installTable",
		method == "rebuildMergeTree", method == "Submit", method == "StopQuery",
		strings.Contains(fn, "ivSorter"), strings.Contains(fn, "(*ivIndex).build"),
		strings.Contains(fn, "Router).Register"), strings.Contains(fn, "Router).Unregister"),
		strings.Contains(fn, "Router).publish"), method == "releaseChangelog", method == "drainPending":
		return "changelog"
	case strings.Contains(fn, "(*Router)"):
		return "router"
	case strings.Contains(fn, "(*Engine)"), strings.Contains(fn, "streamIngress"):
		return "spe"
	case strings.Contains(fn, "(*SharedSelection)"), strings.Contains(fn, "selIndex"), strings.Contains(fn, "ivIndex"):
		return "selection"
	case strings.Contains(fn, "(*SharedJoin)"), strings.Contains(fn, "joinScratch"), strings.Contains(fn, "sliceStore"),
		strings.HasPrefix(fn, "joinStores"):
		return "join"
	case strings.Contains(fn, "(*SharedAggregation).OnTuple"):
		if c.inFanout(f) {
			return "agg_selfanout"
		}
		return "agg_fold"
	case strings.Contains(fn, "(*aggVal).fold"), strings.Contains(fn, "(*SharedAggregation).getVal"),
		strings.Contains(fn, "(*SharedAggregation).masksAt"), strings.Contains(fn, "(*SharedAggregation).valueOf"):
		return "agg_fold"
	case strings.Contains(fn, "(*SharedAggregation)"), strings.Contains(fn, "mergeTree"), strings.Contains(fn, "aggVal"),
		strings.Contains(fn, "fireClass"), strings.Contains(fn, "fireFP"), strings.Contains(fn, "finalizeCountSum"):
		return "agg_fire"
	case strings.Contains(fn, "slicer"), strings.Contains(fn, "qsIndex"), strings.Contains(fn, "slice)"):
		return "" // shared by join and aggregation: the caller decides
	}
	return "other"
}

func isSnapshotFunc(method string) bool {
	for _, p := range []string{"OnBarrier", "Restore", "snap", "read", "ControlSnapshot", "appendDelta", "noteSnapshot"} {
		if strings.HasPrefix(method, p) {
			return true
		}
	}
	return false
}

// inFanout reports whether an OnTuple frame sits in the selection fan-out
// loop, which is the part of the function before it first touches the
// per-port aggregation masks. The split line is read once from the source
// file the profile names; when it cannot be found every OnTuple sample
// counts as fold.
func (c *classifier) inFanout(f frame) bool {
	end, ok := c.fanoutEnd[f.file]
	if !ok {
		end = findFanoutEnd(f.file)
		c.fanoutEnd[f.file] = end
	}
	return f.line < end
}

func findFanoutEnd(path string) int64 {
	fh, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	inFunc := false
	for n := int64(1); sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "func (a *SharedAggregation) OnTuple(") {
			inFunc = true
			continue
		}
		if inFunc && strings.Contains(line, "portMasks") {
			return n
		}
		if inFunc && line == "}" {
			return 0
		}
	}
	return 0
}

// layerShares returns each layer's share of total sampled CPU time.
func layerShares(samples []cpuSample) map[string]float64 {
	c := newClassifier()
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[c.layerOf(s)] += s.weight
		total += s.weight
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
