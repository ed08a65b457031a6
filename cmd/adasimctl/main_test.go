package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"adasim/internal/service"
)

// bootServer serves a dispatcher on a loopback listener, as adasimd
// wires them, and returns its base URL.
func bootServer(t *testing.T) string {
	t.Helper()
	d, err := service.NewDispatcher(service.Config{Workers: 2, QueueSize: 16, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewServer(d)}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

func TestRun(t *testing.T) {
	addr := bootServer(t)
	ctl := func(args ...string) (string, error) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-addr", addr}, args...), &stdout, &stderr)
		return stdout.String(), err
	}
	// s1 and RD were rejected before the shared binder; the job must
	// carry the same spec as the canonical spelling.
	submit := []string{"submit", "-scenarios", "s1", "-gaps", "60", "-reps", "1", "-steps", "300",
		"-fault", "RD", "-driver", "-aeb", "independent"}
	out, err := ctl(submit...)
	if err != nil {
		t.Fatal(err)
	}
	var view service.TaskView
	if err := json.Unmarshal([]byte(out), &view); err != nil || view.ID == "" {
		t.Fatalf("submit printed %q: %v", out, err)
	}

	cases := []struct {
		name string
		args []string
		want []string // substrings of stdout
		err  string
	}{
		{"wait", []string{"task", "wait", "-id", view.ID}, []string{`"status": "done"`}, ""},
		{"task status", []string{"task", "status", "-id", view.ID}, []string{`"status":"done"`}, ""},
		{"results", []string{"task", "results", "-id", view.ID}, []string{`"results":[{"key":{"scenario":1,"gap":60,"rep":0}`, `"aeb_trigger_rate":1,"driver_brake_trigger_rate":1`}, ""},
		{"health", []string{"health"}, []string{`"status":"ok"`}, ""},
		{"cache", []string{"cache"}, []string{"memory tier: 1/1024 entries", "disk tier: off"}, ""},
		{"scenarios", []string{"scenarios"}, []string{`"families"`}, ""},
		{"explore", []string{"explore", "-family", "cut-in", "-method", "lhs", "-samples", "2",
			"-steps", "300", "-axes", "trigger_gap=10:50", "-wait"}, []string{`"method":"lhs"`}, ""},
		{"report", []string{"report", "-artifacts", "table4", "-reps", "1", "-steps", "300", "-wait"},
			[]string{"TABLE IV"}, ""},
		{"missing id", []string{"task", "results"}, nil, "-id is required"},
		{"bad scenario", []string{"submit", "-scenarios", "S7"}, nil, `unknown scenario "S7"`},
		{"bad aeb", []string{"submit", "-aeb", "on"}, nil, "(want off|comp|indep)"},
		{"unknown command", []string{"frobnicate"}, nil, `unknown command "frobnicate"`},
		{"results outside task", []string{"results", "-id", view.ID}, nil, `unknown command "results"`},
		{"unknown task verb", []string{"task", "poke"}, nil, `unknown task verb "poke"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := ctl(c.args...)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
		})
	}

	// submit -wait with the canonical spellings prints the same bytes
	// as the results of the first job.
	results, err := ctl("task", "results", "-id", view.ID)
	if err != nil {
		t.Fatal(err)
	}
	waited, err := ctl("submit", "-scenarios", "S1", "-gaps", "60", "-reps", "1", "-steps", "300",
		"-fault", "rd", "-driver", "-aeb", "indep", "-wait")
	if err != nil {
		t.Fatal(err)
	}
	if waited != results {
		t.Errorf("submit -wait printed\n%s\nresults printed\n%s", waited, results)
	}
}
