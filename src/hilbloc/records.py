"""Immutable records: the value classes of hilbloc (surfaces, bundles,
integrands, Chern vectors, genera, fits, verify profiles).

A record's fields are the parameters of its `__init__`, in order.  The
`__init__` validates them and ends with `self._freeze(<the fields, in
order>)`, which stores each field and the field tuple once.  Every
record then has:

- equality by the field tuple, and `NotImplemented` against any other type;
- `hash(record) == hash(field tuple)`, computed on first use and cached
  (`lru_cache` keys hash their records on every call), so a record with an
  unhashable field constructs and only hashing it fails;
- the repr `Name(field=value, ...)`;
- assignment and deletion raise `AttributeError`;
- an instance `__dict__`, so a `functools.cached_property` can store its
  value there without it being a field or part of eq and hash.

This is what `@dataclass(frozen=True)` gave these classes.  Every hilbloc
command is a fresh process that computes one invariant and exits, and
`dataclasses` costs it about 20 ms of CPU at import: the module pulls in
`inspect`, `ast`, `dis` and `tokenize`, and each decorated class compiles
its methods from source.  Plain tuples would not do either: they compare
equal across types, iterate, and have no `__dict__`.
"""


class Record:
    _fields = ()  # the parameter names of __init__ after self
    _hash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _freeze(self, *values):
        d = self.__dict__
        d.update(zip(self._fields, values))
        d["_key"] = values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash(self._key)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuild from the fields: a cached hash of a str is only valid in
        # the process that computed it
        return self.__class__, self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
