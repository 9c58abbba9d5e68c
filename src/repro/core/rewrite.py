"""Small IR rewriting utilities shared by the compiler passes."""


def substitute_uses(body, mapping):
    """Replace register *uses* per ``mapping`` throughout ``body`` (in place).

    Definitions are left untouched, so renaming a value's consumers away
    from a multiply-defined register is safe.
    """
    for stmt in body:
        for field in stmt.READS:
            value = getattr(stmt, field)
            if type(value) is list:
                setattr(stmt, field, [mapping.get(a, a) if type(a) is str else a for a in value])
            elif type(value) is str and value in mapping:
                setattr(stmt, field, mapping[value])
        for block in stmt.blocks():
            substitute_uses(block, mapping)


def remove_stmts(body, victim_ids):
    """Remove statements whose id() is in ``victim_ids``, recursively."""
    body[:] = [s for s in body if id(s) not in victim_ids]
    for stmt in body:
        for block in stmt.blocks():
            remove_stmts(block, victim_ids)


def find_container(body, target):
    """The statement list directly holding ``target`` (by identity), or None."""
    for stmt in body:
        if stmt is target:
            return body
    for stmt in body:
        for block in stmt.blocks():
            found = find_container(block, target)
            if found is not None:
                return found
    return None
