"""twirl: twisted orbital integral residue library.

Exact arithmetic over totally ramified extensions of Q_p, twisted
conjugacy and discriminants, a ramified-induction test function on GL_2,
stratified orbital integration, and closed-form residue extraction for
the resulting coefficient series.

Each name is imported from the module that defines it, as in
`from twirl.localfield import LocalFieldCtx`; the package re-exports
nothing, so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
