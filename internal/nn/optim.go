package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"prionn/internal/tensor"
)

// Optimizer updates parameters in place from accumulated gradients.
// Implementations keep per-parameter state keyed by tensor identity, so
// the same optimizer instance can be reused across the warm-start
// retraining events of PRIONN's online loop.
type Optimizer interface {
	// Step applies one update. params[i] is updated from grads[i].
	Step(params, grads []*tensor.Tensor)
}

// SGD is stochastic gradient descent with classical momentum and optional
// gradient clipping.
type SGD struct {
	LR       float64 // learning rate
	Momentum float64 // momentum coefficient in [0, 1)
	Clip     float64 // max L2 norm per gradient tensor; 0 disables
	velocity map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	for i, p := range params {
		g := grads[i]
		if s.Clip > 0 {
			g.ClipNorm(s.Clip)
		}
		if s.Momentum > 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(g.Shape...)
				s.velocity[p] = v
			}
			v.Scale(float32(s.Momentum)).AddScaled(-float32(s.LR), g)
			p.Add(v)
		} else {
			p.AddScaled(-float32(s.LR), g)
		}
	}
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction
// and optional gradient clipping.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64
	states map[*tensor.Tensor]*adamState
	t      int
}

type adamState struct {
	m, v *tensor.Tensor
}

// NewAdam returns an Adam optimizer with the customary defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		states: make(map[*tensor.Tensor]*adamState),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*tensor.Tensor) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		if a.Clip > 0 {
			g.ClipNorm(a.Clip)
		}
		st, ok := a.states[p]
		if !ok {
			st = &adamState{m: tensor.New(g.Shape...), v: tensor.New(g.Shape...)}
			a.states[p] = st
		}
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

// Reset clears all accumulated optimizer state (momentum/moment
// estimates). Used by the cold-start ablation; the paper's warm-start
// loop never calls it.
func (a *Adam) Reset() {
	a.states = make(map[*tensor.Tensor]*adamState)
	a.t = 0
}

// StatefulOptimizer is an optimizer whose accumulated state can be
// checkpointed. Both methods take the parameter list the state is keyed
// by (in Sequential.Params order), because the in-memory state maps are
// keyed by tensor identity, which does not survive a process restart.
type StatefulOptimizer interface {
	Optimizer
	SaveState(params []*tensor.Tensor, w io.Writer) error
	LoadState(params []*tensor.Tensor, r io.Reader) error
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
	moments := make([]*tensor.Tensor, 0, 2*len(params))
	for i, p := range params {
		st, ok := a.states[p]
		if !ok {
			return fmt.Errorf("nn: optimizer has stepped %d times but never parameter %d", a.t, i)
		}
		moments = append(moments, st.m, st.v)
	}
	return writeTensors(w, moments)
}

// LoadState restores state saved by SaveState, re-keying it onto params:
// the moments are read into fresh tensors shaped like their parameters.
// After an error the optimizer holds partial state and must be
// discarded (or Reset).
func (a *Adam) LoadState(params []*tensor.Tensor, r io.Reader) error {
	var t [8]byte
	if _, err := io.ReadFull(r, t[:]); err != nil {
		return err
	}
	a.Reset()
	if a.t = int(binary.LittleEndian.Uint64(t[:])); a.t == 0 {
		return nil
	}
	moments := make([]*tensor.Tensor, 0, 2*len(params))
	for _, p := range params {
		st := &adamState{m: tensor.New(p.Shape...), v: tensor.New(p.Shape...)}
		a.states[p] = st
		moments = append(moments, st.m, st.v)
	}
	return readTensors(r, moments)
}
