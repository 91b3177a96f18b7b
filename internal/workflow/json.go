package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// FromJSON decodes and validates a workflow definition from its JSON
// representation (paper §IV-D: "the workflow is given in a JSON format
// which will be translated into an HOCL workflow prior to execution").
// Unknown fields are rejected to catch schema mistakes early.
//
// Example:
//
//	{
//	  "name": "diamond",
//	  "tasks": [
//	    {"id": "T1", "service": "s1", "in": ["input"], "dst": ["T2", "T3"]},
//	    {"id": "T2", "service": "s2", "dst": ["T4"]},
//	    {"id": "T3", "service": "s3", "dst": ["T4"]},
//	    {"id": "T4", "service": "s4"}
//	  ],
//	  "adaptations": [
//	    {"id": "a1", "faulty": ["T2"], "replacement": [
//	      {"id": "T2bis", "service": "s2alt", "src": ["T1"], "dst": ["T4"]}
//	    ]}
//	  ]
//	}
func FromJSON(data []byte) (*Definition, error) {
	d, err := decodeJSON(data)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// JSON encodes the definition as compact JSON. The output round-trips
// through FromJSON, and it is byte for byte what a journal records as
// the session's workflow (a json.RawMessage, which encoding/json
// compacts), so a plan keyed by either is the same plan.
func (d *Definition) JSON() ([]byte, error) {
	return json.Marshal(d)
}

// decodeJSON decodes a definition without validating it, rejecting
// unknown fields.
func decodeJSON(data []byte) (*Definition, error) {
	var d Definition
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("workflow: decoding JSON: %w", err)
	}
	return &d, nil
}
