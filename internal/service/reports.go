package service

import (
	"encoding/json"
	"fmt"

	"adasim/internal/report"
)

// ReportKind registers paper-artifact reports with the task runtime.
// Reports are bulk-priority (a full-spec report is orders of magnitude
// heavier than a job) and heavy-retention (a finished record keeps its
// rendered artifacts, ~0.5 MB). All record-keeping, scheduling,
// pruning, and HTTP plumbing is the generic runtime's; this file is
// only the kind registration and the engine adapter.
var ReportKind = RegisterKind(&TaskKind{
	Name:     "report",
	Plural:   "reports",
	Prefix:   "r",
	Class:    RetentionHeavy,
	Priority: PriorityBulk,
	Decode: func(b []byte) (TaskSpec, error) {
		// The shared strict decoder keeps the HTTP and offline
		// (cmd/tables, adasimctl -spec) contracts identical by
		// construction.
		spec, err := report.DecodeSpec(b)
		if err != nil {
			return nil, err
		}
		return ReportTask{Spec: spec}, nil
	},
	Encode: func(spec TaskSpec) ([]byte, error) {
		r, ok := spec.(ReportTask)
		if !ok {
			return nil, fmt.Errorf("service: report encode: unexpected spec type %T", spec)
		}
		return json.Marshal(r.Spec)
	},
	// The result is served as-is (it already carries the spec hash and
	// no volatile fields), so two reports of the same spec produce
	// byte-identical responses.
	Wire: func(hash string, result any) any { return result },
})

// ReportTask adapts report.Spec to the TaskSpec contract: submit one
// with SubmitTask(ReportKind, ReportTask{Spec: s}, "").
type ReportTask struct {
	Spec report.Spec
}

// Prepare implements TaskSpec. Total stays 0: a report's run count
// depends on which artifacts it renders, and the engine counts it into
// the task's tally.
func (r ReportTask) Prepare() (PreparedTask, error) {
	norm := r.Spec.Normalized()
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
			eng := report.New(env.Exec, env.Cache)
			eng.Tally = env.Tally
			res, err := eng.Run(norm)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}, nil
}
