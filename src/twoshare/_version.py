__version__ = "0.1.0"
