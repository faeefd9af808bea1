"""Name of the numeric backend, for benchmark records.

Every dense kernel is numpy's (LAPACK and BLAS underneath); there is only
one backend.
"""

BACKEND = "numpy"
