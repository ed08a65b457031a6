package service

import (
	"encoding/json"
	"fmt"

	"adasim/internal/experiments"
)

// JobKind registers campaign jobs with the task runtime: the full cross
// product scenarios x gaps x reps of closed-loop runs under one fault
// parameterisation and one intervention set (see JobSpec).
var JobKind = RegisterKind(&TaskKind{
	Name:     "job",
	Plural:   "jobs",
	Prefix:   "j",
	Class:    RetentionStandard,
	Priority: PriorityInteractive,
	Decode: func(b []byte) (TaskSpec, error) {
		spec, err := DecodeSpec(b)
		if err != nil {
			return nil, err
		}
		return spec, nil
	},
	Encode: func(spec TaskSpec) ([]byte, error) {
		s, ok := spec.(JobSpec)
		if !ok {
			return nil, fmt.Errorf("service: job encode: unexpected spec type %T", spec)
		}
		return json.Marshal(s)
	},
	Wire: func(hash string, result any) any {
		runs := result.([]experiments.RunOutcome)
		return ResultsResponse{
			SpecHash:  hash,
			TotalRuns: len(runs),
			Results:   runs,
			Aggregate: AggregateFor(runs),
		}
	},
})

// Prepare implements TaskSpec: normalize, validate, hash, and expand the
// campaign into its planned runs.
func (s JobSpec) Prepare() (PreparedTask, error) {
	norm := s.Normalized()
	if err := norm.Validate(); err != nil {
		return PreparedTask{}, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return PreparedTask{}, err
	}
	plan, err := norm.Plan()
	if err != nil {
		return PreparedTask{}, err
	}
	prep := PreparedTask{
		Hash:  hash,
		Total: len(plan),
		// Results keep the canonical plan order, so job output is
		// independent of pool size and cache warmth.
		Run: func(env TaskEnv) (any, error) {
			outs, err := experiments.Resolve(env.Exec, env.Cache, plan, env.Tally)
			if err != nil {
				return nil, err
			}
			return outs, nil
		},
	}
	if len(plan) == 1 && plan[0].CacheKey != "" {
		prep.SoleRun = &SoleRunRef{Key: plan[0].Key, CacheKey: plan[0].CacheKey}
	}
	return prep, nil
}
