package service

import (
	"fmt"
	"net/http"

	"vprof/internal/absint"
	"vprof/internal/compiler"
	"vprof/internal/diag"
	"vprof/internal/lang"
)

// CheckRequest asks for a static perf-smell analysis: either a registered
// workload by name (the resolver supplies the source) or an inline program.
type CheckRequest struct {
	// Workload names a registered workload; its source comes from the
	// resolver. Mutually exclusive with Source.
	Workload string `json:"workload,omitempty"`
	// Source is an inline program text; Path names it in findings
	// (default "input.vp").
	Source string `json:"source,omitempty"`
	Path   string `json:"path,omitempty"`
}

// CheckFinding is one perf-smell diagnostic, JSON-shaped.
type CheckFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Function string `json:"function,omitempty"`
	Variable string `json:"variable,omitempty"`
	Message  string `json:"message"`
}

// CheckResponse carries the checker's findings, the rendered report, and
// the per-function static cost bounds.
type CheckResponse struct {
	Workload string            `json:"workload,omitempty"`
	Path     string            `json:"path"`
	Findings []CheckFinding    `json:"findings"`
	Costs    map[string]string `json:"costs"`
	Render   string            `json:"render"`
	// ExitCode mirrors the CLI convention: 1 when any finding is at
	// warning severity or above, 0 otherwise.
	ExitCode int `json:"exit_code"`
}

// Check resolves the request's source, compiles it, and runs the abstract
// interpreter. Exported so the CLI and tests can drive it without HTTP.
func (s *Server) Check(req CheckRequest) (*CheckResponse, int, error) {
	var path, src string
	switch {
	case req.Workload != "" && req.Source != "":
		return nil, http.StatusBadRequest, withCode(CodeBadRequest,
			fmt.Errorf("workload and source are mutually exclusive"))
	case req.Workload != "":
		var err error
		path, src, err = s.resolver.Source(req.Workload)
		if err != nil {
			return nil, http.StatusNotFound, withCode(CodeNotFound,
				fmt.Errorf("source of workload %q: %w", req.Workload, err))
		}
	case req.Source != "":
		path, src = req.Path, req.Source
		if path == "" {
			path = "input.vp"
		}
	default:
		return nil, http.StatusBadRequest, withCode(CodeBadRequest,
			fmt.Errorf("workload or source is required"))
	}

	f, err := lang.Parse(path, src)
	if err != nil {
		return nil, http.StatusBadRequest, withCode(CodeBadRequest, fmt.Errorf("parse: %w", err))
	}
	prog, err := compiler.Compile(f)
	if err != nil {
		return nil, http.StatusBadRequest, withCode(CodeBadRequest, fmt.Errorf("compile: %w", err))
	}
	an := absint.AnalyzeProgram(prog)
	rep := an.Check()
	resp := &CheckResponse{
		Workload: req.Workload,
		Path:     path,
		Findings: make([]CheckFinding, 0, len(rep.Findings)),
		Costs:    an.FunctionCosts(),
		Render:   rep.Render(),
		ExitCode: rep.ExitCode(),
	}
	for _, fd := range rep.Findings {
		resp.Findings = append(resp.Findings, checkFinding(fd))
	}
	return resp, http.StatusOK, nil
}

func checkFinding(f diag.Finding) CheckFinding {
	return CheckFinding{
		Rule:     f.Rule,
		Severity: f.Severity.String(),
		File:     f.File,
		Line:     f.Line,
		Function: f.Function,
		Variable: f.Variable,
		Message:  f.Message,
	}
}
