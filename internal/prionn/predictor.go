package prionn

import (
	"context"
	"fmt"
	"math/rand"

	"prionn/internal/fault"
	"prionn/internal/mapping"
	"prionn/internal/nn"
	"prionn/internal/tensor"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

// Prediction is PRIONN's per-job output.
type Prediction struct {
	RuntimeMin int     // predicted runtime, minutes
	ReadBytes  float64 // predicted total bytes read
	WriteBytes float64 // predicted total bytes written
	PowerW     float64 // predicted mean power draw (0 unless PredictPower)
}

// ReadBW returns the read bandwidth implied by the prediction: the paper
// computes bandwidth "by dividing the total bytes read and written with
// the predicted runtimes of jobs".
func (p Prediction) ReadBW() float64 {
	if p.RuntimeMin <= 0 {
		return 0
	}
	return p.ReadBytes / (float64(p.RuntimeMin) * 60)
}

// WriteBW returns the write bandwidth implied by the prediction.
func (p Prediction) WriteBW() float64 {
	if p.RuntimeMin <= 0 {
		return 0
	}
	return p.WriteBytes / (float64(p.RuntimeMin) * 60)
}

// Predictor is the PRIONN tool: a trained data mapping plus one deep
// learning classifier per target (runtime, bytes read, bytes written).
// Retraining is warm-start: Train updates the existing parameters, so
// knowledge accumulates across training events (§2.3).
type Predictor struct {
	Config Config

	transform mapping.Transform
	emb       *word2vec.Embedding

	runtime *nn.Sequential
	read    *nn.Sequential
	write   *nn.Sequential
	power   *nn.Sequential

	runtimeOpt nn.Optimizer
	readOpt    nn.Optimizer
	writeOpt   nn.Optimizer
	powerOpt   nn.Optimizer

	rbins runtimeBins
	iobin ioBins
	pbins ioBins // log-scale watt bins reuse the IO binning

	rng     *rand.Rand
	trained bool
	// events counts completed training events. Each event's minibatch
	// shuffles draw from an RNG seeded by (Config.Seed, events, head),
	// so a predictor restored from a checkpoint draws exactly the
	// permutations the one that saved it would have drawn next.
	events int
	// fs is the persistence file-op layer; nil means the real
	// filesystem. See SetFS.
	fs fault.FS
}

// New builds an untrained predictor. When cfg.Transform is word2vec, the
// character embedding is trained on corpus (historical job scripts);
// other transforms ignore corpus.
func New(cfg Config, corpus []string) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var emb *word2vec.Embedding
	if cfg.Transform == TransformWord2Vec {
		w2vCfg := word2vec.DefaultConfig()
		w2vCfg.Dim = cfg.EmbeddingDim
		w2vCfg.Seed = cfg.Seed
		emb = word2vec.Train(corpus, w2vCfg)
	}
	p := newPredictor(cfg, emb)
	p.initHeads(p.rng)
	return p, nil
}

// NewTrained builds the model a tool starts from when it has a history
// but no checkpoint: New with the scripts of every completed job as the
// corpus, then one training event on the cfg.TrainWindow most recent.
func NewTrained(cfg Config, completed []trace.Job) (*Predictor, error) {
	scripts := make([]string, len(completed))
	for i, j := range completed {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		return nil, err
	}
	if _, err := p.Train(completed[max(0, len(completed)-cfg.TrainWindow):]); err != nil {
		return nil, err
	}
	return p, nil
}

// newPredictor builds a predictor around a validated configuration and
// its embedding (nil unless the transform is word2vec), without heads:
// New initializes them from the predictor's RNG, Load leaves them zero
// for the checkpoint to fill.
func newPredictor(cfg Config, emb *word2vec.Embedding) *Predictor {
	p := &Predictor{
		Config: cfg,
		emb:    emb,
		rbins:  runtimeBins{Classes: cfg.RuntimeClasses, MaxMin: cfg.MaxRuntimeMin},
		iobin:  ioBins{Classes: cfg.IOClasses, Min: cfg.MinIOBytes, Max: cfg.MaxIOBytes},
		pbins:  ioBins{Classes: cfg.PowerClasses, Min: cfg.MinPowerW, Max: cfg.MaxPowerW},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	switch cfg.Transform {
	case TransformBinary:
		p.transform = mapping.Binary{}
	case TransformSimple:
		p.transform = mapping.Simple{}
	case TransformOneHot:
		p.transform = mapping.OneHot{}
	case TransformWord2Vec:
		p.transform = mapping.Word2Vec{Emb: emb}
	}
	return p
}

// initHeads builds every enabled head, drawing initial weights from rng
// in head order (a nil rng leaves them zero), each with a cold optimizer.
func (p *Predictor) initHeads(rng *rand.Rand) {
	cfg := p.Config
	p.runtime = p.buildModel(rng, cfg.RuntimeClasses)
	p.runtimeOpt = nn.NewAdam(cfg.LR)
	if cfg.PredictIO {
		p.read = p.buildModel(rng, cfg.IOClasses)
		p.write = p.buildModel(rng, cfg.IOClasses)
		p.readOpt = nn.NewAdam(cfg.LR)
		p.writeOpt = nn.NewAdam(cfg.LR)
	}
	if cfg.PredictPower {
		p.power = p.buildModel(rng, cfg.PowerClasses)
		p.powerOpt = nn.NewAdam(cfg.LR)
	}
}

// head is one classifier head's slot in the predictor: what a training
// event fits, and what a checkpoint stores, one head after another.
type head struct {
	model *nn.Sequential
	opt   nn.Optimizer
	class func(trace.Job) int // the job's label on this head's bins
}

// heads lists the enabled heads in training (and checkpoint wire) order.
func (p *Predictor) heads() []head {
	hs := []head{{p.runtime, p.runtimeOpt, func(j trace.Job) int { return p.rbins.Class(j.ActualMin()) }}}
	if p.Config.PredictIO {
		hs = append(hs,
			head{p.read, p.readOpt, func(j trace.Job) int { return p.iobin.Class(float64(j.ReadBytes)) }},
			head{p.write, p.writeOpt, func(j trace.Job) int { return p.iobin.Class(float64(j.WriteBytes)) }})
	}
	if p.Config.PredictPower {
		hs = append(hs, head{p.power, p.powerOpt, func(j trace.Job) int { return p.pbins.Class(j.AvgPowerW) }})
	}
	return hs
}

// inputText assembles the model input for one job: the script, with the
// input deck appended when IncludeDeck is set.
func (p *Predictor) inputText(script, deck string) string {
	if p.Config.IncludeDeck && deck != "" {
		return script + "\n" + deck
	}
	return script
}

// buildModel constructs one classifier head for the configured
// architecture, drawing initial weights from rng. It takes the RNG
// explicitly so that heads about to be overwritten can be built from
// none, without consuming the predictor's own stream (which must stay
// bitwise-reproducible).
func (p *Predictor) buildModel(rng *rand.Rand, classes int) *nn.Sequential {
	arch := nn.ArchConfig{
		Rows:     p.Config.Rows,
		Cols:     p.Config.Cols,
		Channels: p.transform.Channels(),
		Classes:  classes,
		Width:    p.Config.Width,
	}
	switch p.Config.Model {
	case ModelNN:
		return nn.NewFullyConnected(rng, arch)
	case Model1DCNN:
		return nn.NewCNN1D(rng, arch)
	default:
		return nn.NewCNN2D(rng, arch)
	}
}

// mapBatch transforms scripts into the model input layout (see
// Inference.MapTexts, which it delegates to). Like Predict, it is not
// safe for concurrent use: the batch mapping itself is parallel-safe,
// but the surrounding predictor state is single-goroutine.
func (p *Predictor) mapBatch(scripts []string) *tensor.Tensor {
	return p.view().MapTexts(scripts)
}

// Train runs one warm-start training event on a window of completed jobs
// (paper: the 500 most recently completed). It returns the final-epoch
// mean loss of the runtime head.
func (p *Predictor) Train(jobs []trace.Job) (float64, error) {
	return p.TrainCtx(context.Background(), jobs)
}

// TrainCtx is Train with cooperative cancellation: the context is polled
// between minibatches, so a canceled training event returns within one
// batch. The parameters updated by completed batches remain applied.
//
// The event fits every enabled head in turn, each for the configured
// epochs, shuffling its minibatches from a stream seeded by
// eventSeed(Config.Seed, events, head). Together with the Adam moments
// and the event counter a checkpoint carries, that makes a restored
// predictor retrain exactly as the one that saved it would have.
func (p *Predictor) TrainCtx(ctx context.Context, jobs []trace.Job) (float64, error) {
	if len(jobs) == 0 {
		return 0, fmt.Errorf("prionn: empty training window")
	}
	heads := p.heads()
	scripts := make([]string, len(jobs))
	labels := make([][]int, len(heads))
	for h := range labels {
		labels[h] = make([]int, len(jobs))
	}
	for i, j := range jobs {
		scripts[i] = p.inputText(j.Script, j.InputDeck)
		for h, head := range heads {
			labels[h][i] = head.class(j)
		}
	}
	x := p.mapBatch(scripts)
	epochs := p.Config.Epochs
	if !p.trained {
		// Bootstrap: the very first training event runs longer so the
		// warm-start chain begins from a fitted model rather than random
		// weights (subsequent events only need to track drift).
		epochs *= 3
	}
	var runtimeLoss float64
	for h, head := range heads {
		loss, err := head.model.FitCtx(ctx, x, labels[h], head.opt, nn.FitOptions{
			Epochs:    epochs,
			BatchSize: p.Config.BatchSize,
			Shuffle:   rand.New(rand.NewSource(eventSeed(p.Config.Seed, p.events, h))),
		})
		if err != nil {
			return runtimeLoss, err
		}
		if h == 0 {
			runtimeLoss = loss
		}
	}
	p.trained = true
	p.events++
	return runtimeLoss, nil
}

// eventSeed derives the shuffle seed for one (event, head) pair from the
// configured seed via a splitmix64 finalizer, so every head of every
// event gets an independent, reproducible stream.
func eventSeed(seed int64, event, head int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(event+1) + 0xbf58476d1ce4e5b9*uint64(head+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Trained reports whether at least one training event has run.
func (p *Predictor) Trained() bool { return p.trained }

// Events returns the number of completed training events.
func (p *Predictor) Events() int { return p.events }

// Predict returns predictions for a batch of job scripts.
//
// Contract: Predict runs the forward passes unconditionally, including
// on never-trained weights, whose output is He-init noise with no
// relation to the job. Callers that can reach an untrained predictor
// must check Trained() first and fall back to the job's user-requested
// runtime (the paper's behaviour before the first training event);
// the serve layer does exactly this.
//
// Predict reads the heads Train writes, so it must not run beside a
// training event. Concurrent serving goes through Snapshot, whose
// deep-copied Inference is safe to share across goroutines.
func (p *Predictor) Predict(scripts []string) []Prediction {
	return p.view().Predict(scripts)
}

// PredictOne returns the prediction for a single job script.
func (p *Predictor) PredictOne(script string) Prediction {
	return p.Predict([]string{script})[0]
}

// PredictJobs predicts a batch of trace jobs, assembling each input from
// the script plus (when IncludeDeck is set) the job's input deck.
func (p *Predictor) PredictJobs(jobs []trace.Job) []Prediction {
	texts := make([]string, len(jobs))
	for i, j := range jobs {
		texts[i] = p.inputText(j.Script, j.InputDeck)
	}
	return p.Predict(texts)
}

// PredictJob predicts a single trace job.
func (p *Predictor) PredictJob(j trace.Job) Prediction {
	return p.PredictJobs([]trace.Job{j})[0]
}

// NumParams returns the total trainable parameter count across heads.
func (p *Predictor) NumParams() int {
	n := p.runtime.NumParams()
	if p.Config.PredictIO {
		n += p.read.NumParams() + p.write.NumParams()
	}
	if p.Config.PredictPower {
		n += p.power.NumParams()
	}
	return n
}

// Reinitialize rebuilds all model parameters from scratch (cold start).
// The paper's loop never does this — it exists for the warm-vs-cold
// ablation benchmark.
func (p *Predictor) Reinitialize() {
	p.initHeads(p.rng)
	p.trained = false
}
