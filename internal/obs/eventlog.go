package obs

import (
	"io"
	"log/slog"
	"time"
)

// EventLogger returns the service tier's event log: one JSON object per
// line on w, Debug level and up. A line opens with "ts" (RFC 3339 UTC,
// nanoseconds), "level" and "event" (the record's message), followed by
// the record's attributes in call order. The server and the fleet gateway
// both write their job and routing events through it.
func EventLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: slog.LevelDebug,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) > 0 {
				return a
			}
			switch a.Key {
			case slog.TimeKey:
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			case slog.MessageKey:
				a.Key = "event"
			}
			return a
		},
	}))
}
