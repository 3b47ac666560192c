package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hsfq/internal/experiments"
)

// figureSeed is the seed the figure suite is pinned to: cmd/experiments
// runs it by default and internal/experiments/testdata holds its goldens.
// At other seeds some shape checks fail (ablation-ebf, ablation-leaf,
// ablation-lottery and fig10 at seeds 1-12), so the workload seed orders
// the pass instead of reseeding it.
const figureSeed = 42

// fairqueueFigures are the experiments that drive internal/fairqueue
// packet servers; every other experiment drives the cpu machine.
var fairqueueFigures = map[string]bool{
	"ablation-fairness": true,
	"ablation-delay":    true,
}

// figures is a set-up figures workload: the pass order and each
// experiment's golden digest.
type figures struct {
	order []string
	want  map[string]string
}

func newFigures(seed uint64) (*figures, error) {
	ids := experiments.IDs()
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	f := &figures{order: ids, want: map[string]string{}}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", id, err)
		}
		sum := sha256.Sum256(b)
		f.want[id] = hex.EncodeToString(sum[:])
	}
	// The warm-up pass checks every experiment before anything is timed.
	return f, f.op(nil)
}

// op runs the whole suite once; every experiment must pass its shape
// checks and render exactly its golden output.
func (f *figures) op(tr *tracer) error {
	for _, id := range f.order {
		tr.begin("experiments." + id)
		r, err := experiments.Run(id, experiments.Options{Seed: figureSeed})
		tr.end()
		if err != nil {
			return err
		}
		if !r.Passed() {
			return fmt.Errorf("%s: shape check failed:\n%s", id, r.Summary())
		}
		if d := r.Digest(); d != f.want[id] {
			return fmt.Errorf("%s: digest %s differs from its golden %s", id, d, f.want[id])
		}
	}
	return nil
}

func runFigures(opt options) (report, error) {
	f, setups, err := repeatSetup(func() (*figures, error) { return newFigures(opt.Seed) }, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{Metrics: map[string]float64{}}
	if !opt.Trace {
		loop := runClosedLoop(opt.Window, 1, func(int, int) error { return f.op(nil) })
		loop.endToEnd(rep.Metrics, setups)
		rep.Attempted, rep.Failed = loop.attempted(), loop.failed
		return rep, nil
	}

	tr := newTracer()
	loop := runClosedLoop(opt.Window, 2, func(i, mode int) error {
		if mode == modePlain {
			return f.op(nil)
		}
		tr.beginOp("op", i)
		defer tr.end()
		return f.op(tr)
	})
	rep.Attempted, rep.Failed = loop.attempted(), loop.failed
	m := rep.Metrics
	var fq, machine []float64
	for _, self := range tr.selfByOp() {
		var a, b float64
		for id := range f.want {
			if fairqueueFigures[id] {
				a += self["experiments."+id]
			} else {
				b += self["experiments."+id]
			}
		}
		fq, machine = append(fq, a), append(machine, b)
	}
	var names []string
	for id := range f.want {
		names = append(names, "experiments."+id)
	}
	for name, v := range tr.medianSelf(names...) {
		m[name+"_ms"] = v
	}
	m["trace.residual_ms"] = tr.medianSelf("op")["op"]
	m["experiments.fairqueue_ms"] = median(fq)
	m["experiments.machine_ms"] = median(machine)
	m["trace.overhead_ms"] = median(loop.modes[modeSpans]) - median(loop.modes[modePlain])
	writeSpans(opt, tr)
	return rep, nil
}
