package bench

import (
	"encoding/json"
	"hash/crc32"
	"math"
)

// ProbeSeed is the request seed of the fixed correctness probe.
const ProbeSeed = 424242

// genInputs is how many distinct requests a generator cycles through: few
// enough to precompute every expected output, so each reply under load is
// checked bit for bit, and more than any batch, so a batch never repeats
// an input.
const genInputs = 64

// PredictRequest and PredictResponse are the JSON predict API as a client
// sees it. The generator owns these shapes on purpose: the wire format is
// the contract, not the server's Go types.
type PredictRequest struct {
	Input []float32 `json:"input"`
	Seed  uint64    `json:"seed"`
}

// PredictResponse is the reply to a PredictRequest.
type PredictResponse struct {
	Model     string    `json:"model"`
	Output    []float32 `json:"output"`
	ArgMax    int       `json:"argmax"`
	BatchSize int       `json:"batch_size"`
	LatencyMs float64   `json:"latency_ms"`
}

// splitmix is the generator's own PRNG (SplitMix64), independent of the
// program under test so a change to the program's RNG cannot move the
// benchmark's inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Generator is the deterministic request stream of one run: everything the
// program under test sees is derived from the seed.
type Generator struct {
	// Inputs[i] is request i's flattened feature map, uniform in [-1, 1).
	Inputs [][]float32
	// Seeds[i] is request i's error-stream seed.
	Seeds []uint64
	// Bodies[i] is request i's JSON predict body, encoded once up front as
	// a real load generator would, so the measured loop does not pay for
	// (or measure) the benchmark's own marshalling.
	Bodies [][]byte
}

// NewGenerator builds n requests of inputLen values each from seed.
func NewGenerator(seed uint64, n, inputLen int) (*Generator, error) {
	rng := splitmix(seed)
	g := &Generator{
		Inputs: make([][]float32, n),
		Seeds:  make([]uint64, n),
		Bodies: make([][]byte, n),
	}
	for i := range g.Inputs {
		in := make([]float32, inputLen)
		for j := range in {
			in[j] = float32(rng.next()>>40)/float32(1<<23) - 1
		}
		g.Inputs[i] = in
		g.Seeds[i] = rng.next()
		body, err := json.Marshal(PredictRequest{Input: in, Seed: g.Seeds[i]})
		if err != nil {
			return nil, err
		}
		g.Bodies[i] = body
	}
	return g, nil
}

// Pick maps a client and its iteration to a request index; consecutive
// iterations of one client and simultaneous iterations of different
// clients land on different inputs.
func (g *Generator) Pick(client, iter int) int {
	return (client*7 + iter) % len(g.Inputs)
}

// ProbeBody is the fixed probe (Inputs[0], ProbeSeed) as a predict body.
func (g *Generator) ProbeBody() ([]byte, error) {
	return json.Marshal(PredictRequest{Input: g.Inputs[0], Seed: ProbeSeed})
}

// FloatsCRC is the CRC-32 of the exact bit patterns of v, the fingerprint
// two commits compare outputs by.
func FloatsCRC(v []float32) uint32 {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		b := math.Float32bits(f)
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
	return crc32.ChecksumIEEE(buf)
}

// BitsEqual reports whether a and b hold identical float32 bit patterns.
func BitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
