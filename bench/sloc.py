"""Source line counts of the tropmirror modules.

A line counts when it holds code: blank lines, comment-only lines and
docstrings do not count.
"""

import ast
import io
import os
import tokenize

# the modules at the time the benchmark was written; one that is deleted
# later reads 0, one that is added later shows in total.sloc
MODULES = (
    "__init__", "chains", "cli", "cosheaves", "errors", "exterior", "intlinalg",
    "lattice", "mirror", "modules", "pairs", "patchwork", "posets", "triangulate",
)


def count_sloc(source):
    code_lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            code_lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(code_lines)


def metric_name(module):
    return ("init" if module == "__init__" else module) + ".sloc"


def package_sloc(package_dir):
    """{"<module>.sloc": lines} for MODULES, plus "total.sloc" over every file."""
    out = {metric_name(m): 0 for m in MODULES}
    total = 0
    for fname in sorted(os.listdir(package_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package_dir, fname)) as fh:
            lines = count_sloc(fh.read())
        total += lines
        if fname[:-3] in MODULES:
            out[metric_name(fname[:-3])] = lines
    out["total.sloc"] = total
    return out
