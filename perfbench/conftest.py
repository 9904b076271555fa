"""The benchmark's own tests import gradtrack from this checkout's src/."""

import env

env.load_gradtrack()
