package service

import (
	"encoding/json"
	"fmt"

	"adasim/internal/explore"
)

// ExplorationKind registers scenario-space explorations with the task
// runtime. All record-keeping, scheduling, pruning, and HTTP plumbing
// is the generic runtime's; this file is only the kind registration and
// the engine adapter.
var ExplorationKind = RegisterKind(&TaskKind{
	Name:     "exploration",
	Plural:   "explorations",
	Prefix:   "x",
	Class:    RetentionStandard,
	Priority: PriorityInteractive,
	Decode: func(b []byte) (TaskSpec, error) {
		spec, err := explore.DecodeSpec(b)
		if err != nil {
			return nil, err
		}
		return ExplorationTask{Spec: spec}, nil
	},
	Encode: func(spec TaskSpec) ([]byte, error) {
		e, ok := spec.(ExplorationTask)
		if !ok {
			return nil, fmt.Errorf("service: exploration encode: unexpected spec type %T", spec)
		}
		return json.Marshal(e.Spec)
	},
	// The report is served as-is (it already carries the spec hash and
	// no volatile fields), so two explorations of the same spec produce
	// byte-identical responses.
	Wire: func(hash string, result any) any { return result },
})

// ExplorationTask adapts explore.Spec to the TaskSpec contract: submit
// one with SubmitTask(ExplorationKind, ExplorationTask{Spec: s}, "").
type ExplorationTask struct {
	Spec explore.Spec
}

// Prepare implements TaskSpec. Total stays 0: boundary searches decide
// their probe count adaptively, so the completed count simply grows
// until the exploration finishes.
func (e ExplorationTask) Prepare() (PreparedTask, error) {
	norm := e.Spec.Normalized()
	if err := norm.Validate(); err != nil {
		return PreparedTask{}, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return PreparedTask{}, err
	}
	return PreparedTask{
		Hash: hash,
		Run: func(env TaskEnv) (any, error) {
			eng := explore.New(env.Exec, env.Cache)
			eng.Tally = env.Tally
			rep, err := eng.Run(norm)
			if err != nil {
				return nil, err
			}
			return rep, nil
		},
	}, nil
}
