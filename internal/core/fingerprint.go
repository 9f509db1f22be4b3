package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"siesta/internal/fault"
	"siesta/internal/merge"
	"siesta/internal/netmodel"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

// fingerprintVersion is folded into every fingerprint so a change to the
// canonical encoding (new fields, renamed fields) invalidates old cache
// keys instead of silently colliding with them.
const fingerprintVersion = "siesta-options-v1"

// optionsJSON is the canonical wire form of Options: platform and
// implementation are replaced by their registry names, and the runtime-only
// fields (Context, Tracer, Parallelism, SearchMemo — none of which can
// change the synthesized output) are omitted entirely. Field order is fixed
// by this declaration, which is what makes the encoding — and therefore
// OptionsFingerprint — deterministic.
type optionsJSON struct {
	Platform     string          `json:"platform,omitempty"`
	Impl         string          `json:"impl,omitempty"`
	Ranks        int             `json:"ranks"`
	NoiseSigma   float64         `json:"noise_sigma,omitempty"`
	RunVariation float64         `json:"run_variation,omitempty"`
	Seed         uint64          `json:"seed,omitempty"`
	Faults       *fault.Plan     `json:"faults,omitempty"`
	Deadline     vtime.Duration  `json:"deadline,omitempty"`
	Trace        trace.Config    `json:"trace"`
	Merge        merge.Options   `json:"merge"`
	Scale        float64         `json:"scale,omitempty"`
	BenchNoise   *benchNoiseJSON `json:"bench_noise,omitempty"`
}

// benchNoiseJSON carries the two parameters that fully determine a Noise
// stream; its unexported sample counter is derived state and never encoded.
type benchNoiseJSON struct {
	Sigma float64 `json:"sigma"`
	Seed  uint64  `json:"seed"`
}

func (o Options) canonical() optionsJSON {
	c := optionsJSON{
		Ranks:        o.Ranks,
		NoiseSigma:   o.NoiseSigma,
		RunVariation: o.RunVariation,
		Seed:         o.Seed,
		Faults:       o.Faults,
		Deadline:     o.Deadline,
		Trace:        o.Trace,
		Merge:        o.Merge,
		Scale:        o.Scale,
	}
	if o.Platform != nil {
		c.Platform = o.Platform.Name
	}
	if o.Impl != nil {
		c.Impl = o.Impl.Name
	}
	if o.BenchNoise != nil {
		c.BenchNoise = &benchNoiseJSON{Sigma: o.BenchNoise.Sigma, Seed: o.BenchNoise.Seed}
	}
	return c
}

// MarshalJSON encodes the options deterministically: fixed field order,
// platform and implementation by registry name, no func or context fields.
// The encoding round-trips through UnmarshalJSON.
func (o Options) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.canonical())
}

// UnmarshalJSON decodes the canonical form written by MarshalJSON,
// resolving platform and implementation names through their registries.
// Context and Tracer are runtime concerns and always come back nil.
func (o *Options) UnmarshalJSON(data []byte) error {
	var c optionsJSON
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("core: decode options: %w", err)
	}
	*o = Options{
		Ranks:        c.Ranks,
		NoiseSigma:   c.NoiseSigma,
		RunVariation: c.RunVariation,
		Seed:         c.Seed,
		Faults:       c.Faults,
		Deadline:     c.Deadline,
		Trace:        c.Trace,
		Merge:        c.Merge,
		Scale:        c.Scale,
	}
	if c.Platform != "" {
		p, err := platform.ByName(c.Platform)
		if err != nil {
			return fmt.Errorf("core: decode options: %w", err)
		}
		o.Platform = p
	}
	if c.Impl != "" {
		im, err := netmodel.ByName(c.Impl)
		if err != nil {
			return fmt.Errorf("core: decode options: %w", err)
		}
		o.Impl = im
	}
	if c.BenchNoise != nil {
		o.BenchNoise = perfmodel.NewNoise(c.BenchNoise.Sigma, c.BenchNoise.Seed)
	}
	return nil
}

// OptionsFingerprint returns a stable hex digest identifying the synthesis
// an Options value describes. Defaults are applied first, so a zero field
// and its explicit default fingerprint identically; Context and Tracer
// never participate. Two Options with equal fingerprints produce the same
// proxy (the pipeline is deterministic in its options), which is what makes
// the fingerprint usable as an artifact-cache key.
func OptionsFingerprint(o Options) string {
	data, err := json.Marshal(o.withDefaults().canonical())
	if err != nil {
		// canonical() contains only plain data types; Marshal cannot fail.
		panic(fmt.Sprintf("core: fingerprint encode: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(fingerprintVersion))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}
