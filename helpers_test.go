package apcm_test

import (
	"io"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// writeEventTrace writes events as a trace, for negative-path tests.
func writeEventTrace(w io.Writer, events []*expr.Event) error {
	tw, err := trace.NewWriter(w, trace.KindEvents, len(events))
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := tw.WriteEvent(ev); err != nil {
			return err
		}
	}
	return tw.Close()
}

// writeExpressionTrace writes expressions as a trace, bypassing engine
// validation, for failure-injection tests.
func writeExpressionTrace(w io.Writer, xs []*expr.Expression) error {
	return trace.WriteExpressions(w, xs)
}
