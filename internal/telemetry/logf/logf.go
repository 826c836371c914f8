// Package logf builds the structured loggers the daemons log through: a
// thin constructor over log/slog that turns a CLI-friendly format name
// into a configured *slog.Logger. Two formats:
//
//	text — logfmt-style key=value records (slog.TextHandler), the
//	       default; readable on a terminal, still machine-parseable
//	json — one JSON object per record (slog.JSONHandler), for log
//	       pipelines
//
// Daemons log events, not lines: every record is a short constant
// message plus attributes ("slot settled" slot=17 cost=3.2), so a
// grep for the message finds all of them and a parser never has to
// unformat prose.
package logf

import (
	"fmt"
	"io"
	"log/slog"
)

// Format names accepted by New (and the daemons' -log-format flag).
const (
	FormatText = "text"
	FormatJSON = "json"
)

// New returns a logger writing format-structured records at level Info
// and up to w. An unknown format is an error (the caller surfaces it as a
// flag error); an empty format means text.
func New(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case FormatText, "":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case FormatJSON:
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("logf: unknown log format %q (want %s or %s)", format, FormatText, FormatJSON)
}
