"""An attribute computed on its first read and kept."""


class lazy:
    """A method read as an attribute: the first read computes it and stores
    the value in the instance ``__dict__`` under the attribute's name. This
    is a non-data descriptor, so the stored value shadows it and later reads
    are plain attribute lookups. Unlike ``functools.cached_property`` on
    CPython 3.11 it takes no lock on the first read; the objects that use it
    are read from one thread."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
