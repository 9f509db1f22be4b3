package main

import (
	"fmt"
	"log/slog"
	"os"
	"strings"

	"siesta/internal/obs"
)

// setupLogging installs the process-wide slog default logger: text records
// on stderr at the requested level. Every verb accepts -log-level, so all
// CLI diagnostics share one structured stream.
func setupLogging(level string) error {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))
	return nil
}

// eventLogger builds the event log of the serve, worker and gateway verbs:
// JSON lines on stderr (obs.EventLogger) without -log-level, and with it
// the text logger setupLogging installs at that level.
func eventLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return obs.EventLogger(os.Stderr), nil
	}
	if err := setupLogging(level); err != nil {
		return nil, err
	}
	return slog.Default(), nil
}

// debugEnabled reports whether the default logger emits Debug records.
func debugEnabled() bool {
	return slog.Default().Enabled(nil, slog.LevelDebug)
}

// phaseLogger is an obs observer that logs every pipeline phase transition
// through slog: Debug on start, Info with the duration on end.
func phaseLogger(ev obs.PhaseEvent) {
	if ev.End {
		slog.Info("phase done", "phase", ev.Name, "dur", ev.Dur)
		return
	}
	slog.Debug("phase start", "phase", ev.Name)
}
