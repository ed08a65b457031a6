package obs

import (
	"context"
	"log/slog"
	"testing"
)

// TestNewLogger pins the -log-level/-log-format vocabulary shared by
// adasimd and adasim-worker: each valid level gates at that level in
// both formats, and each bad value is refused with the flag's message.
func TestNewLogger(t *testing.T) {
	levels := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for name, lvl := range levels {
		for _, format := range []string{"text", "json"} {
			l, err := NewLogger(name, format)
			if err != nil {
				t.Fatalf("NewLogger(%q, %q): %v", name, format, err)
			}
			ctx := context.Background()
			if !l.Enabled(ctx, lvl) || l.Enabled(ctx, lvl-1) {
				t.Errorf("NewLogger(%q, %q) does not gate at %v", name, format, lvl)
			}
			var ok bool
			switch format {
			case "text":
				_, ok = l.Handler().(*slog.TextHandler)
			case "json":
				_, ok = l.Handler().(*slog.JSONHandler)
			}
			if !ok {
				t.Errorf("NewLogger(%q, %q) handler = %T", name, format, l.Handler())
			}
		}
	}
	bad := []struct{ level, format, want string }{
		{"verbose", "text", `bad -log-level "verbose" (want debug, info, warn, or error)`},
		{"", "json", `bad -log-level "" (want debug, info, warn, or error)`},
		{"info", "xml", `bad -log-format "xml" (want text or json)`},
		{"info", "", `bad -log-format "" (want text or json)`},
		{"info", "JSON", `bad -log-format "JSON" (want text or json)`},
	}
	for _, tc := range bad {
		l, err := NewLogger(tc.level, tc.format)
		if err == nil || err.Error() != tc.want || l != nil {
			t.Errorf("NewLogger(%q, %q) = %v, %v; want error %q", tc.level, tc.format, l, err, tc.want)
		}
	}
}
