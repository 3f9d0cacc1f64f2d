import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("default", deadline=None, max_examples=40)
settings.load_profile("default")

