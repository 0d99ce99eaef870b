from hypothesis import HealthCheck, settings

settings.register_profile(
    "package",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")

