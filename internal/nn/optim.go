package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"prionn/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction
// and optional gradient clipping. One Adam serves one parameter list:
// its moment estimates are held in that list's order (Sequential.Params
// order), built by the first Step or by LoadState, so the same optimizer
// carries its state across the warm-start retraining events of PRIONN's
// online loop and into a checkpoint.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64
	states []adamState // states[i] belongs to params[i]
	t      int
}

type adamState struct {
	m, v *tensor.Tensor
}

// NewAdam returns an Adam optimizer with the customary defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update: params[i] moves along grads[i]. The first
// Step (on an optimizer LoadState has not filled) builds the moments for
// params; every later Step must pass a list of the same length and
// shapes, or it panics.
func (a *Adam) Step(params, grads []*tensor.Tensor) {
	if a.states == nil {
		a.states = newAdamStates(params)
	}
	if err := a.check(params); err != nil {
		panic(err)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		if a.Clip > 0 {
			g.ClipNorm(a.Clip)
		}
		st := a.states[i]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for j, gv := range g.Data {
			st.m.Data[j] = b1*st.m.Data[j] + (1-b1)*gv
			st.v.Data[j] = b2*st.v.Data[j] + (1-b2)*gv*gv
			mh := float64(st.m.Data[j]) / c1
			vh := float64(st.v.Data[j]) / c2
			p.Data[j] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
	}
}

// newAdamStates returns zero moments shaped like params.
func newAdamStates(params []*tensor.Tensor) []adamState {
	states := make([]adamState, len(params))
	for i, p := range params {
		states[i] = adamState{m: tensor.New(p.Shape...), v: tensor.New(p.Shape...)}
	}
	return states
}

// check reports whether params is the list the moments were built for:
// the same length, and parameter i shaped like its moments.
func (a *Adam) check(params []*tensor.Tensor) error {
	if len(params) != len(a.states) {
		return fmt.Errorf("nn: Adam holds moments for %d parameters, given %d", len(a.states), len(params))
	}
	for i, p := range params {
		if !slices.Equal(p.Shape, a.states[i].m.Shape) {
			return fmt.Errorf("nn: Adam's moments of parameter %d are shaped %v, the parameter %v", i, a.states[i].m.Shape, p.Shape)
		}
	}
	return nil
}

// SaveState writes the Adam step counter (uint64) and, once it has
// stepped, the m and v moment estimates of the given parameters (see
// writeTensors). Warm-start retraining from a checkpoint requires this
// state: restarting Adam from zero moments takes different steps than
// the process that saved it would have.
func (a *Adam) SaveState(params []*tensor.Tensor, w io.Writer) error {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], uint64(a.t))
	if _, err := w.Write(t[:]); err != nil || a.t == 0 {
		return err
	}
	if err := a.check(params); err != nil {
		return err
	}
	moments := make([]*tensor.Tensor, 0, 2*len(params))
	for _, st := range a.states {
		moments = append(moments, st.m, st.v)
	}
	return writeTensors(w, moments)
}

// LoadState restores state saved by SaveState for params: the moments
// are read into fresh tensors shaped like their parameters, replacing
// whatever the optimizer held. Records whose number or sizes differ
// from params' are an error; after one the optimizer holds partial
// state and must be discarded.
func (a *Adam) LoadState(params []*tensor.Tensor, r io.Reader) error {
	var t [8]byte
	if _, err := io.ReadFull(r, t[:]); err != nil {
		return err
	}
	a.states = nil
	if a.t = int(binary.LittleEndian.Uint64(t[:])); a.t == 0 {
		return nil
	}
	a.states = newAdamStates(params)
	moments := make([]*tensor.Tensor, 0, 2*len(params))
	for _, st := range a.states {
		moments = append(moments, st.m, st.v)
	}
	return readTensors(r, moments)
}

// SkipAdamState reads past what Adam.SaveState wrote for params — the
// step counter and, once Adam has stepped, the m and v records — checking
// every count as LoadState does and building no moment tensor. It is for
// a reader that wants a checkpoint's parameters and no optimizer: a
// serving snapshot.
func SkipAdamState(params []*tensor.Tensor, r io.Reader) error {
	var t [8]byte
	if _, err := io.ReadFull(r, t[:]); err != nil || binary.LittleEndian.Uint64(t[:]) == 0 {
		return err
	}
	moments := make([]*tensor.Tensor, 0, 2*len(params))
	for _, p := range params {
		moments = append(moments, p, p) // m and v are shaped like p
	}
	return skipTensors(r, moments)
}
