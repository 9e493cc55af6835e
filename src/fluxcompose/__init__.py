"""Fluent-calculus planning and semantic service composition.

The package compiles ontology-typed service descriptions into actions, plans
workflows by progression over state-update axioms, and executes them against
an emergency-healthcare train scenario (roster, responder tracing, dispatch
log). See README.md for the file formats and the CLI.

Each public name has one home, its module (`fluxcompose.terms`, `dsl`,
`planner`, `ontology`, `registry`, `composer`, `scenario`, `cli`); the
package root imports none of them, so importing a module loads only the
modules it uses.
"""

__version__ = "0.1.0"
