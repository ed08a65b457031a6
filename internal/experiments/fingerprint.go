package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/openpilot"
	"adasim/internal/panda"
	"adasim/internal/perception"
	"adasim/internal/road"
	"adasim/internal/scenario"
	"adasim/internal/vehicle"
)

// optionsFingerprint is the canonical serializable projection of
// core.Options: every field that determines a run's outcome, and nothing
// else (recording flags are excluded — they change what escapes via
// Result, never the trajectory). Field order is part of the encoding.
type optionsFingerprint struct {
	Scenario              scenario.Spec        `json:"scenario"`
	Map                   road.MapKind         `json:"map"`
	FrictionScale         float64              `json:"friction_scale"`
	Fault                 fi.Params            `json:"fault"`
	ExtendedFault         fi.Target            `json:"extended_fault,omitempty"`
	ExtendedParams        *fi.ExtensionParams  `json:"extended_params,omitempty"`
	Interventions         core.InterventionSet `json:"interventions"`
	Seed                  int64                `json:"seed"`
	Steps                 int                  `json:"steps"`
	StepSize              float64              `json:"step_size"`
	PatchStart            float64              `json:"patch_start"`
	PatchLength           float64              `json:"patch_length"`
	OpenPilot             *openpilot.Config    `json:"openpilot,omitempty"`
	Perception            *perception.Config   `json:"perception,omitempty"`
	AEBS                  *aebs.Config         `json:"aebs,omitempty"`
	Vehicle               *vehicle.Params      `json:"vehicle,omitempty"`
	Panda                 *panda.Limits        `json:"panda,omitempty"`
	ContinueAfterAccident bool                 `json:"continue_after_accident,omitempty"`
}

// RunFingerprint returns the canonical content hash of a run: the SHA-256
// of the stable JSON encoding of the run's defaulted options. Because
// options are defaulted first, implicit and explicit defaults hash
// identically, so campaign jobs, exploration probes, and direct RunMatrix
// runs that describe the same run share one cache key.
//
// ML runs cannot be fingerprinted: trained weights determine the outcome
// but do not serialize (InterventionSet.MLNet is excluded from the wire
// format), so hashing them would let two different networks collide on
// one cache key.
func RunFingerprint(opts core.Options) (string, error) {
	var s FingerprintScratch
	return s.Fingerprint(opts)
}

// FingerprintScratch computes run fingerprints while reusing the
// canonical-encode buffer across calls. RunFingerprint allocates the
// encoder state per call; the batch call sites (job planning, report
// campaigns, the exploration engine) fingerprint
// hundreds of runs back to back and keep one scratch per batch instead.
// The zero value is ready; not safe for concurrent use.
type FingerprintScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Fingerprint is RunFingerprint against the reusable buffer. The
// encoding (and therefore the hash) is identical to RunFingerprint's:
// json.Encoder writes json.Marshal's bytes plus a trailing newline,
// which is stripped before hashing.
func (s *FingerprintScratch) Fingerprint(opts core.Options) (string, error) {
	if opts.Interventions.ML || opts.Interventions.MLNet != nil {
		return "", fmt.Errorf("experiments: ML runs cannot be fingerprinted (trained weights are not part of the encoding)")
	}
	opts = opts.WithDefaults()
	if s.enc == nil {
		s.enc = json.NewEncoder(&s.buf)
	}
	s.buf.Reset()
	err := s.enc.Encode(optionsFingerprint{
		Scenario:              opts.Scenario,
		Map:                   opts.Map,
		FrictionScale:         opts.FrictionScale,
		Fault:                 opts.Fault,
		ExtendedFault:         opts.ExtendedFault,
		ExtendedParams:        opts.ExtendedParams,
		Interventions:         opts.Interventions,
		Seed:                  opts.Seed,
		Steps:                 opts.Steps,
		StepSize:              opts.StepSize,
		PatchStart:            opts.PatchStart,
		PatchLength:           opts.PatchLength,
		OpenPilot:             opts.OpenPilot,
		Perception:            opts.Perception,
		AEBS:                  opts.AEBS,
		Vehicle:               opts.Vehicle,
		Panda:                 opts.Panda,
		ContinueAfterAccident: opts.ContinueAfterAccident,
	})
	if err != nil {
		return "", fmt.Errorf("experiments: fingerprinting run: %w", err)
	}
	b := s.buf.Bytes()
	sum := sha256.Sum256(b[:len(b)-1]) // strip the Encoder's trailing newline
	return hex.EncodeToString(sum[:]), nil
}
